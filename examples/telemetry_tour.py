#!/usr/bin/env python3
"""Telemetry tour: spans, metrics, the durable event log, and Prometheus.

This example walks the whole observability subsystem (``repro.obs``) in one
script:

1. run a traced experiment through the engine and watch every work unit
   land in the durable event log under ``<cache>/telemetry/``;
2. replay the log: nested spans with per-unit cache attribution, exactly
   what ``repro obs spans`` renders;
3. serve a model over HTTP and scrape ``/metrics?format=prometheus`` —
   the same registry the JSON ``/metrics`` document reads;
4. add a custom span + metric of your own around application code;
5. show the opt-out (``REPRO_TELEMETRY=0`` / ``trace.set_enabled(False)``)
   leaving zero trace.

The same flows run from the CLI as::

    repro run --models KNN --profile quick
    repro obs summary
    repro obs spans --json
    repro obs tail --follow --kind span

Run with:  python examples/telemetry_tour.py
"""

from __future__ import annotations

import json
import tempfile
import urllib.request
from pathlib import Path

from repro.api import PROFILES, ExperimentSpec, LocalizationService, run_experiment
from repro.eval.engine import ArtifactCache, simulate_campaign
from repro.obs import events, trace
from repro.obs.metrics import REGISTRY
from repro.serve import ModelStore, ServiceClient
from repro.serve.aio.server import AioServerThread


def main() -> None:
    # ------------------------------------------------------------------
    # 1. A traced engine run with a durable event sink.
    #
    # The CLI wires this automatically (`repro run` configures the sink
    # under the active cache directory); embedding code does it in two
    # lines.  Everything is on by default — REPRO_TELEMETRY=0 or
    # `--no-telemetry` opts out.
    # ------------------------------------------------------------------
    telemetry_dir = Path(tempfile.mkdtemp(prefix="repro-telemetry-"))
    sink = events.configure_sink(telemetry_dir)

    spec = ExperimentSpec(
        models=("KNN",),
        profile="quick",
        devices=("OP3",),
        attack_methods=("FGSM",),
        epsilons=(0.1,),
        phi_percents=(10.0,),
    )
    result = run_experiment(spec, cache=False)
    sink.flush()  # the sink's writer thread drains on a short interval
    print(f"experiment done: {len(result.to_records())} result rows")

    # ------------------------------------------------------------------
    # 2. Replay the event log: every engine unit became one span record.
    # The log is plain JSONL segments — crash-safe appends, readable with
    # nothing but the standard library (or `repro obs tail`).
    # ------------------------------------------------------------------
    spans = list(events.read_events(telemetry_dir, kind="span"))
    print(f"\n{len(spans)} spans in {telemetry_dir}:")
    for record in spans:
        attrs = record["attrs"]
        print(
            f"  {record['name']:<14} {record['duration_s'] * 1e3:8.2f}ms"
            f"  kind={attrs.get('kind', '-'):<9}"
            f" cache_hits={attrs.get('cache_hits', '-')}"
            f" cache_misses={attrs.get('cache_misses', '-')}"
        )

    # ------------------------------------------------------------------
    # 3. Prometheus exposition from the serving tier.  The default
    # /metrics stays the JSON document; `?format=prometheus` negotiates
    # the text scrape format from the very same registry.
    # ------------------------------------------------------------------
    store = ModelStore(tempfile.mkdtemp(prefix="repro-store-"))
    service = LocalizationService.trained_on(
        "Building 1", model="KNN", profile="quick", cache=False
    )
    store.publish(service, "knn", tags=("prod",))

    with AioServerThread(store) as server:
        base = server.base_url
        config = PROFILES["quick"]()
        campaign, _ = simulate_campaign(
            "Building 1", config, ArtifactCache.coerce(False)
        )
        queries = campaign.test_for(config.devices[0]).features[:4]
        with ServiceClient(base) as client:
            client.localize(queries, model="knn")  # move the HTTP counters
        with urllib.request.urlopen(f"{base}/metrics?format=prometheus") as resp:
            exposition = resp.read().decode()
        lines = [l for l in exposition.splitlines() if "repro_http" in l]
        print(f"\nprometheus exposition ({base}/metrics?format=prometheus):")
        for line in lines[:6]:
            print(f"  {line}")

    # ------------------------------------------------------------------
    # 4. Your own spans and metrics ride the same rails.
    # ------------------------------------------------------------------
    jobs = REGISTRY.counter("tour_jobs_total", "Tour jobs", ("outcome",))
    with trace.span("tour.job", batch="demo") as sp:
        sp.set(items=3)
        jobs.labels(outcome="ok").inc()
    snapshot = REGISTRY.snapshot()["tour_jobs_total"]
    print(f"\ncustom metric snapshot: {json.dumps(snapshot)}")
    sink.flush()
    last = list(events.read_events(telemetry_dir, kind="span"))[-1]
    print(f"custom span persisted: {last['name']} attrs={last['attrs']}")

    # ------------------------------------------------------------------
    # 5. Opt-out: disabled tracing is a shared no-op — nothing recorded,
    # nothing allocated, and seeded computation is untouched either way
    # (bench_obs.py proves bit-identity with tracing on).
    # ------------------------------------------------------------------
    sink.flush()
    before = len(list(events.read_events(telemetry_dir)))
    trace.set_enabled(False)
    with trace.span("tour.invisible"):
        pass
    trace.set_enabled(None)
    events.configure_sink(None)  # flush + close the sink
    after = len(list(events.read_events(telemetry_dir)))
    print(f"\ndisabled span recorded {after - before} events (expected 0)")


if __name__ == "__main__":
    main()
