#!/usr/bin/env python
"""Benchmark harness for the telemetry subsystem (``repro.obs``).

Telemetry is only acceptable if it is effectively free and provably inert:

``serving``
    The in-process serving path (gateway + micro-batcher) replayed with
    spans/metrics/event-log **on** versus telemetry **off**.  Each rep
    runs both arms back-to-back (order alternating) and contributes one
    paired on/off ratio; the gated statistic is the *median of paired
    ratios*, which is robust to the step-shaped drift of shared 1-CPU
    runners.  Gate: ``--min-serving-ratio`` (default 0.97x).
``engine``
    A cold serial experiment (no artefact cache) timed under both arms,
    same pairing.  Gate: ``--min-engine-ratio`` (default 0.98x).
``identical``
    With tracing ON, the repo's bit-identity invariants must still hold:
    ``jobs=1`` equals ``jobs=N``, the serial engine equals a queue-drained
    run, and HTTP predictions equal direct service calls.  Any divergence
    fails the run regardless of the perf gates.

Results are written to ``BENCH_obs.json`` (override with ``--output``)::

    python benchmarks/bench_obs.py
    python benchmarks/bench_obs.py --requests 1200 --serving-reps 8

Exit status is non-zero when an identity invariant breaks or a perf ratio
falls below its gate (pass 0 to disable a gate).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:  # allow running without installing
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import __version__  # noqa: E402
from repro.api import (  # noqa: E402
    ExperimentSpec,
    LocalizationService,
    run_experiment,
)
from repro.obs import events, trace  # noqa: E402
from repro.serve import ModelStore, ServiceClient  # noqa: E402
from repro.serve.aio.server import AioServerThread  # noqa: E402
from repro.serve.http import ServingApp  # noqa: E402


def _bench_spec(model: str, building: str) -> ExperimentSpec:
    return ExperimentSpec(
        models=(model,),
        buildings=(building,),
        profile="quick",
        devices=("OP3",),
        attack_methods=("FGSM",),
        epsilons=(0.1,),
        phi_percents=(10.0,),
    )


def _telemetry_setup(sink_dir: Path) -> None:
    """Configure the durable sink once for the whole benchmark.

    The arms then toggle *only* ``trace.set_enabled`` — exactly how a user
    flips ``REPRO_TELEMETRY``.  Re-creating the sink per arm would bill its
    setup side effects (segment scan, open, first-append fsync) to whichever
    timed window follows, biasing the on arm.
    """
    trace.set_enabled(True)
    events.configure_sink(sink_dir)
    with trace.span("bench.warmup"):
        pass
    time.sleep(0.1)  # let the writer thread open the first segment


def _telemetry_teardown() -> None:
    events.configure_sink(None)
    trace.set_enabled(None)


def _drive_serving(
    app: ServingApp, endpoint: str, queries: np.ndarray, threads: int
) -> float:
    """Requests/second for one replay of ``queries`` from ``threads`` callers."""
    cursor = {"next": 0}
    lock = threading.Lock()

    def worker() -> None:
        while True:
            with lock:
                index = cursor["next"]
                if index >= queries.shape[0]:
                    return
                cursor["next"] = index + 1
            app.localize(endpoint, queries[index])

    pool = [threading.Thread(target=worker) for _ in range(threads)]
    start = time.perf_counter()
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    return queries.shape[0] / (time.perf_counter() - start)


def bench_serving(
    store: ModelStore,
    endpoint: str,
    queries: np.ndarray,
    threads: int,
    reps: int,
) -> Dict[str, object]:
    """Interleaved on/off serving throughput; median of *paired* ratios.

    Shared 1-CPU runners drift in steps (cgroup quota refills, noisy
    neighbours arriving and leaving), so per-arm aggregates are biased by
    whichever arm got more samples on the fast side of a step.  Instead
    each rep runs both arms back-to-back (order alternating) and yields one
    on/off ratio; steps between reps cancel inside the pair, and the
    *median* over reps discards the pairs a step landed in the middle of.
    """
    samples: Dict[str, List[float]] = {"on": [], "off": []}
    ratios: List[float] = []
    app = ServingApp(store, batching=True, max_batch=64, max_wait_ms=2.0)
    try:
        app.localize(endpoint, queries[0])  # untimed model load
        for rep in range(reps):
            # Alternate the in-pair order so warm-up bias hits both arms.
            for arm in ("on", "off") if rep % 2 == 0 else ("off", "on"):
                trace.set_enabled(arm == "on")
                samples[arm].append(
                    _drive_serving(app, endpoint, queries, threads)
                )
            ratios.append(samples["on"][-1] / samples["off"][-1])
    finally:
        trace.set_enabled(True)
        app.close()
    return {
        "requests_per_rep": int(queries.shape[0]),
        "client_threads": threads,
        "reps": reps,
        "telemetry_on_rps": [round(v, 2) for v in samples["on"]],
        "telemetry_off_rps": [round(v, 2) for v in samples["off"]],
        "paired_ratios": [round(v, 4) for v in ratios],
        "ratio": round(statistics.median(ratios), 4),
    }


def bench_engine(spec: ExperimentSpec, reps: int) -> Dict[str, object]:
    """Interleaved on/off cold serial engine wall time; median of *paired*
    per-rep ratios (see ``bench_serving`` for why pairing beats per-arm
    aggregates on step-drifting runners).  Many short pairs beat few long
    ones here: the noise decorrelates within a single run, so the pair-ratio
    spread shrinks as 1/sqrt(reps)."""
    samples: Dict[str, List[float]] = {"on": [], "off": []}
    ratios: List[float] = []
    for rep in range(reps):
        for arm in ("on", "off") if rep % 2 == 0 else ("off", "on"):
            trace.set_enabled(arm == "on")
            start = time.perf_counter()
            run_experiment(spec, cache=False)
            samples[arm].append(time.perf_counter() - start)
        ratios.append(samples["off"][-1] / samples["on"][-1])
    trace.set_enabled(True)
    return {
        "reps": reps,
        "telemetry_on_s": [round(v, 4) for v in samples["on"]],
        "telemetry_off_s": [round(v, 4) for v in samples["off"]],
        "paired_ratios": [round(v, 4) for v in ratios],
        # Throughput-style ratio: >= 1 means tracing costs nothing.
        "ratio": round(statistics.median(ratios), 4),
    }


def check_identity(
    spec: ExperimentSpec,
    service: LocalizationService,
    store: ModelStore,
    endpoint: str,
    queries: np.ndarray,
) -> Dict[str, bool]:
    """The repo's bit-identity invariants, evaluated with tracing ON."""
    from repro.eval.engine import ArtifactCache
    from repro.queue import RunLedger, WorkerOptions, collect_results, work

    trace.set_enabled(True)
    try:
        serial = run_experiment(spec, cache=False).to_records()
        parallel = run_experiment(spec, cache=False, jobs=2).to_records()

        with tempfile.TemporaryDirectory(prefix="repro-bench-obs-queue-") as tmp:
            cache = ArtifactCache(Path(tmp) / "cache")
            ledger = RunLedger.submit(spec, cache)
            work(
                cache,
                ledger.run_id,
                workers=1,
                options=WorkerOptions(poll_s=0.01, backoff_s=0.0),
            )
            queued = collect_results(
                RunLedger.open(cache, ledger.run_id)
            ).to_records()

        direct = service.localize(queries)
        with AioServerThread(store, max_batch=64, max_wait_ms=2.0) as server:
            with ServiceClient(server.base_url) as client:
                via_http = client.localize(queries, model=endpoint)
    finally:
        trace.set_enabled(True)

    return {
        "jobs1_vs_jobs2": serial == parallel,
        "serial_vs_queue_drain": serial == queued,
        "http_vs_direct": bool(
            np.array_equal(via_http.labels, direct.labels)
            and np.array_equal(via_http.coordinates, direct.coordinates)
        ),
    }


def run_benchmark(
    model: str = "KNN",
    building: str = "Building 1",
    requests: int = 4800,
    threads: int = 4,
    serving_reps: int = 20,
    engine_reps: int = 50,
    output: Optional[Path] = None,
) -> Dict[str, object]:
    spec = _bench_spec(model, building)
    print(f"training {model} on {building} (quick profile) ...", flush=True)
    service = LocalizationService.trained_on(
        building, model=model, profile="quick", cache=False
    )
    from repro.api import PROFILES
    from repro.eval.engine import ArtifactCache, simulate_campaign

    config = PROFILES["quick"]()
    campaign, _ = simulate_campaign(building, config, ArtifactCache.coerce(False))
    test = campaign.test_for(config.devices[0])
    queries = np.tile(
        test.features, (requests // test.features.shape[0] + 1, 1)
    )[:requests]

    with tempfile.TemporaryDirectory(prefix="repro-bench-obs-") as tmp:
        store = ModelStore(Path(tmp) / "store")
        store.publish(service, model.lower(), tags=("bench",))
        endpoint = f"{model.lower()}@bench"
        _telemetry_setup(Path(tmp) / "telemetry")
        try:
            print(
                f"serving: {serving_reps} interleaved pairs x {requests} "
                f"requests ({threads} threads), telemetry on vs off ...",
                flush=True,
            )
            serving = bench_serving(
                store, endpoint, queries, threads, serving_reps
            )
            print(
                f"  paired ratios {serving['paired_ratios']} "
                f"(median {serving['ratio']})"
            )

            print(
                f"engine: {engine_reps} interleaved cold serial pairs ...",
                flush=True,
            )
            engine = bench_engine(spec, engine_reps)
            print(
                f"  paired ratios {engine['paired_ratios']} "
                f"(median {engine['ratio']})"
            )

            print("identity invariants with tracing on ...", flush=True)
            identical = check_identity(spec, service, store, endpoint, queries[:64])
            print(f"  {identical}")
        finally:
            _telemetry_teardown()

    report: Dict[str, object] = {
        "benchmark": "obs",
        "version": __version__,
        "created_unix": time.time(),
        "machine": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
        },
        "model": model,
        "building": building,
        "serving": serving,
        "engine": engine,
        "identical": identical,
    }
    if output is not None:
        output.parent.mkdir(parents=True, exist_ok=True)
        output.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {output}")
    return report


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--model", default="KNN",
                        help="registry name of the benchmarked model")
    parser.add_argument("--building", default="Building 1")
    parser.add_argument("--requests", type=int, default=4800,
                        help="serving requests per rep")
    parser.add_argument("--threads", type=int, default=4,
                        help="concurrent serving client threads")
    parser.add_argument("--serving-reps", type=int, default=20,
                        help="back-to-back on/off serving pairs")
    parser.add_argument("--engine-reps", type=int, default=50,
                        help="back-to-back on/off cold engine pairs")
    parser.add_argument("--output", type=Path, default=REPO_ROOT / "BENCH_obs.json")
    parser.add_argument("--min-serving-ratio", type=float, default=0.97,
                        help="fail unless telemetry-on serving throughput "
                        "reaches this factor of telemetry-off (0 disables)")
    parser.add_argument("--min-engine-ratio", type=float, default=0.98,
                        help="fail unless the traced cold serial engine "
                        "reaches this factor of the untraced one (0 disables)")
    args = parser.parse_args(argv)

    report = run_benchmark(
        model=args.model,
        building=args.building,
        requests=args.requests,
        threads=args.threads,
        serving_reps=args.serving_reps,
        engine_reps=args.engine_reps,
        output=args.output,
    )

    failures: List[str] = []
    identical: Dict[str, bool] = report["identical"]  # type: ignore[assignment]
    for invariant, held in identical.items():
        if not held:
            failures.append(f"identity invariant broken with tracing on: {invariant}")
    serving_ratio = report["serving"]["ratio"]  # type: ignore[index]
    if args.min_serving_ratio and serving_ratio < args.min_serving_ratio:
        failures.append(
            f"serving throughput with telemetry {serving_ratio}x < "
            f"{args.min_serving_ratio}x gate"
        )
    engine_ratio = report["engine"]["ratio"]  # type: ignore[index]
    if args.min_engine_ratio and engine_ratio < args.min_engine_ratio:
        failures.append(
            f"traced engine {engine_ratio}x < {args.min_engine_ratio}x gate"
        )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("all telemetry gates passed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
