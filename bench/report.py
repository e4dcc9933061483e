"""Metric derivation: per-layer metrics from spans, units from the declarations.

The per-layer metrics come from the spans of a separate traced run.  Their
names and units, and those of the ``BENCHMARK.json`` end-to-end metrics,
live in the repository's ``BENCHMARK.json``; the other end-to-end metrics
a workload measures are declared in :mod:`bench.metrics`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Mapping, Optional, Sequence, Tuple

from .env import ROOT
from .spans import covered, layer_self_times, outermost

__all__ = [
    "BENCHMARK_JSON",
    "load_benchmark",
    "declared_metrics",
    "layer_metrics",
    "with_units",
]

BENCHMARK_JSON = ROOT / "BENCHMARK.json"

#: Layers whose self time is reported (repository modules).
LAYERS = ("data", "core", "baselines", "attacks", "eval", "queue", "serve")

#: Models whose training time is reported separately (every model a
#: workload trains); the layer is the package that defines the model.
FIT_MODELS = {
    "CALLOC": "core",
    "KNN": "baselines",
    "GPC": "baselines",
    "DNN": "baselines",
    "AdvLoc": "baselines",
    "ANVIL": "baselines",
    "SANGRIA": "baselines",
    "WiDeep": "baselines",
}

#: Lease reads made while committing or renewing count as commit/heartbeat.
QUEUE_PEERS = ("queue.claim", "queue.commit", "queue.heartbeat", "queue.execute")


def load_benchmark(path: Path = BENCHMARK_JSON) -> dict:
    with open(path) as stream:
        return json.load(stream)


def declared_metrics(benchmark: Mapping[str, object]) -> Dict[str, dict]:
    """``name -> {"unit", "better"[, "bound"]}`` for every metric a run can print.

    ``BENCHMARK.json``'s end-to-end and per-layer metrics, and the measured
    end-to-end metrics of :data:`bench.metrics.METRICS`.
    """
    from .metrics import METRICS

    declared = {m["name"]: dict(m) for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    for name, metric in METRICS.items():
        declared[name] = {"name": name, "unit": metric.unit, "better": metric.better,
                          "bound": metric.bound}
    return declared


def _total(spans: Sequence[dict], name: str, **kwargs) -> Tuple[int, float]:
    found = outermost(spans, name, **kwargs)
    return len(found), sum(span["dur"] for span in found)


def _attr_total(spans: Sequence[dict], name: str, key: str) -> float:
    return float(sum(span["attrs"].get(key) or 0 for span in spans if span["name"] == name))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    spans: Sequence[dict],
    counters: Mapping[str, float],
    *,
    windows: Optional[Sequence[Tuple[float, float]]] = None,
    client_latency_s: Optional[float] = None,
    max_batch: int = 64,
    extras: Optional[Mapping[str, float]] = None,
) -> Dict[str, float]:
    """Every per-layer metric from the spans and counters of one traced run.

    The end-to-end time being attributed is either the wall-clock
    ``windows`` of the batch passes (covered by any span) or, for serving,
    the summed client latency (covered by the server's request spans).
    """
    m: Dict[str, float] = {}
    m["data.campaign.calls"], m["data.campaign.busy_s"] = _total(spans, "data.campaign")
    for layer in ("core", "baselines"):
        m[f"{layer}.fit.busy_s"] = _total(spans, f"{layer}.fit")[1]
    for model, layer in FIT_MODELS.items():
        m[f"{layer}.fit.busy_s.{model}"] = _total(
            spans, f"{layer}.fit", where=lambda s, model=model: s["attrs"].get("model") == model
        )[1]
    m["attacks.surrogate.busy_s"] = _total(spans, "attacks.surrogate")[1]
    m["attacks.craft.calls"], m["attacks.craft.busy_s"] = _total(spans, "attacks.craft")
    m["attacks.craft.rows"] = _attr_total(spans, "attacks.craft", "rows")
    m["eval.score.busy_s"] = _total(spans, "eval.score")[1]
    m["eval.scenario.busy_s"] = _total(spans, "eval.scenario")[1]

    gets, m["eval.cache.get_s"] = _total(spans, "eval.cache.get")
    hits = _attr_total(spans, "eval.cache.get", "hit")
    m["eval.cache.hits"], m["eval.cache.misses"] = hits, gets - hits
    m["eval.cache.hit_ratio"] = _ratio(hits, gets)
    m["eval.cache.put_s"] = _total(spans, "eval.cache.put")[1]
    m["eval.cache.bytes_written"] = _attr_total(spans, "eval.cache.put", "bytes")

    m["queue.submit_s"] = _total(spans, "queue.submit")[1]
    m["queue.claim.calls"], m["queue.claim.busy_s"] = _total(
        spans, "queue.claim", peers=QUEUE_PEERS
    )
    attempts = [s for s in spans if s["name"] == "queue.claim" and "acquired" in s["attrs"]]
    acquired = sum(1 for s in attempts if s["attrs"]["acquired"])
    m["queue.lease.attempts"], m["queue.lease.acquired"] = len(attempts), acquired
    m["queue.lease.success_ratio"] = _ratio(acquired, len(attempts))
    m["queue.execute.busy_s"] = _total(spans, "queue.execute")[1]
    m["queue.commit.busy_s"] = _total(spans, "queue.commit", peers=QUEUE_PEERS)[1]
    m["queue.heartbeat.renewals"] = _attr_total(spans, "queue.heartbeat", "renewed")
    m["queue.units.done"] = _attr_total(spans, "queue.commit", "done")
    m["queue.units.retried"] = len(outermost(spans, "queue.retry"))
    worker = [s for s in spans if s["name"] == "queue.worker"]
    in_worker = sum(
        s["dur"] for name in ("queue.claim", "queue.execute", "queue.commit")
        for s in outermost(spans, name, peers=QUEUE_PEERS)
    )
    m["queue.idle_s"] = max(0.0, sum(s["dur"] for s in worker) - in_worker)

    for part in ("decode", "parse", "build", "encode"):
        m[f"serve.protocol.{part}_s"] = _total(spans, f"serve.protocol.{part}")[1]
    m["serve.gateway.resolve_s"] = _total(spans, "serve.gateway.resolve")[1]
    flushes = [s for s in spans if s["name"] == "serve.batch.flush"]
    flush_rows = sum(s["attrs"].get("batch_size", 0) for s in flushes)
    in_flush = sum(s["dur"] * s["attrs"].get("requests", 1) for s in flushes)
    queued = counters.get("serve.batching.queued_s", 0.0)
    m["serve.batching.wait_s"] = max(0.0, queued - in_flush)
    m["serve.batching.flushes"] = len(flushes)
    m["serve.batching.rows_per_flush"] = _ratio(flush_rows, len(flushes))
    m["serve.batching.fill_ratio"] = _ratio(m["serve.batching.rows_per_flush"], max_batch)
    m["serve.predict.calls"], m["serve.predict.busy_s"] = _total(spans, "serve.predict")
    m["serve.predict.rows"] = _attr_total(spans, "serve.predict", "rows")
    m["serve.predict.us_per_row"] = 1e6 * _ratio(
        m["serve.predict.busy_s"], m["serve.predict.rows"]
    )
    requests = [
        s for s in spans
        if s["name"] == "http.request" and s["attrs"].get("path") == "/v1/localize"
    ]
    m["serve.request_s"] = sum(s["dur"] for s in requests)
    protocol = sum(m[f"serve.protocol.{part}_s"] for part in ("decode", "parse", "build", "encode"))
    m["serve.transport_s"] = max(
        0.0, m["serve.request_s"] - protocol - m["serve.gateway.resolve_s"] - queued
    )

    for name in ("queue.spawn_s", "loadgen.sent", "loadgen.ok", "loadgen.late_s",
                 "loadgen.late_tail_ms", "obs.overhead_ratio"):
        m[name] = float((extras or {}).get(name, 0.0))
    if client_latency_s is not None:
        # Latency runs from the due time: the generator's own lateness is
        # measured, the server's request spans cover the rest they can.
        wall = client_latency_s
        m["serve.client_gap_s"] = max(0.0, wall - m["serve.request_s"])
        attributed = m["serve.request_s"] + m["loadgen.late_s"]
    else:
        windows = windows or ()
        wall = sum(hi - lo for lo, hi in windows)
        attributed = covered(spans, windows)
        m["serve.client_gap_s"] = 0.0
    m["unattributed_s"] = max(0.0, wall - attributed)
    m["attributed_ratio"] = _ratio(attributed, wall)
    own = layer_self_times(spans)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = own.get(layer, 0.0)
    return m


def with_units(
    values: Mapping[str, float], declared: Sequence[Mapping[str, str]]
) -> Dict[str, dict]:
    """``{name: {"value", "unit"}}`` for every metric ``declared`` in BENCHMARK.json.

    A declared metric the workload did not produce is an error, never a
    silent zero.
    """
    missing = [d["name"] for d in declared if d["name"] not in values]
    if missing:
        raise KeyError(f"metrics not produced: {missing}")
    return {d["name"]: {"value": float(values[d["name"]]), "unit": d["unit"]} for d in declared}
