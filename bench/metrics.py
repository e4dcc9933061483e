"""End-to-end metrics: what each workload measures, and what it prints.

Each workload measures the end-to-end metrics that mean something for it
(:data:`MEASURED`), under names that say what they are: ``cold_s`` is the
cold regeneration, ``lat_p99_ms.high`` the serving tail at the ``high``
rate, ``drain_s`` a queue drain.

The BENCHMARK.json format asks every run to print the same end-to-end
metrics, whatever its workload, and none of them may ever read 0.  So
``BENCHMARK.json`` lists three: ``setup_s`` and ``peak_rss_mb``, which every
workload measures, and ``primary_ms``, each workload's primary time
(:data:`PRIMARY`).  Every other measured metric gets its unit, direction and
bound from :data:`METRICS`; ``python -m bench compare`` judges it exactly
like the ``BENCHMARK.json`` ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping

__all__ = ["Metric", "METRICS", "MEASURED", "PRIMARY", "end_to_end"]


@dataclass(frozen=True)
class Metric:
    unit: str
    better: str
    #: Share of the base median by which the metric may get worse.
    bound: float


#: The measured metrics that ``BENCHMARK.json`` does not list.
METRICS: Dict[str, Metric] = {
    "cold_s": Metric("s", "lower", 0.25),
    "warm_s": Metric("s", "lower", 0.25),
    "drain_s": Metric("s", "lower", 0.25),
    "drain_s.workers2": Metric("s", "lower", 0.25),
    "lat_p50_ms.low": Metric("ms", "lower", 0.25),
    "lat_p99_ms.low": Metric("ms", "lower", 0.25),
    "lat_p50_ms.high": Metric("ms", "lower", 0.25),
    "lat_p99_ms.high": Metric("ms", "lower", 0.25),
    "max_rate_rps": Metric("1/s", "higher", 0.25),
    # Any failure where the base had none is worse.
    "error_rate": Metric("ratio", "lower", 0.0),
}

_SERVING = (
    "setup_s", "lat_p50_ms.low", "lat_p99_ms.low", "lat_p50_ms.high", "lat_p99_ms.high",
    "max_rate_rps", "error_rate", "peak_rss_mb",
)

#: The end-to-end metrics each workload measures.
MEASURED: Dict[str, tuple] = {
    "paper_quick": ("setup_s", "cold_s", "warm_s", "error_rate", "peak_rss_mb"),
    "serve_single_json": _SERVING,
    "serve_batch_binary": _SERVING,
    "queue_sweep": ("setup_s", "drain_s", "drain_s.workers2", "error_rate", "peak_rss_mb"),
}

#: ``primary_ms`` of each workload: ``(measured metric, factor to ms)``.
PRIMARY: Dict[str, tuple] = {
    "paper_quick": ("cold_s", 1000.0),
    "serve_single_json": ("lat_p50_ms.low", 1.0),
    "serve_batch_binary": ("lat_p50_ms.low", 1.0),
    "queue_sweep": ("drain_s", 1000.0),
}


def end_to_end(workload: str, measured: Mapping[str, float]) -> Dict[str, float]:
    """The ``BENCHMARK.json`` end-to-end metrics out of a workload's measured ones."""
    name, to_ms = PRIMARY[workload]
    return {
        "setup_s": measured["setup_s"],
        "primary_ms": to_ms * measured[name],
        "peak_rss_mb": measured["peak_rss_mb"],
    }
