"""``python -m bench compare``: two sets of runs against the declared bounds.

For each (workload, metric) both sides get a median and quartiles
(``statistics.quantiles(values, n=4)``) and the candidate a verdict:

``worse``       median worse than the base by more than the bound;
``better``      median better by more than the base's own quartile spread;
``within``      neither;
``unresolved``  either side's quartile spread (relative to its median) is
                wider than the bound — unless every candidate run beats
                every base run (``better``), or loses to every base run
                with a median worse by more than the bound (``worse``).

Bounds come from ``BENCHMARK.json`` and :data:`bench.metrics.METRICS`.  A
base median of 0 (``error_rate``) makes any rise of the median infinitely
worse.  Per-layer metrics carry no bound; they get statistics and no
verdict.
"""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

__all__ = ["load_runs", "stats", "verdict", "compare", "render"]


def load_runs(path: Path) -> Tuple[Dict[Tuple[str, str], List[float]], Set[float]]:
    """``(workload, metric) -> values`` over every report line in ``path``.

    Also the set of ``--seconds`` values the runs were made with.
    """
    values: Dict[Tuple[str, str], List[float]] = {}
    seconds: Set[float] = set()
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        document = json.loads(line)
        seconds.add(float(document["seconds"]))
        for workload, result in document["workloads"].items():
            # ``metrics`` repeats some measured values under BENCHMARK.json names.
            merged = {}
            for section in ("layers", "metrics", "measured"):
                merged.update(result.get(section) or {})
            for name, metric in merged.items():
                values.setdefault((workload, name), []).append(metric["value"])
    return values, seconds


def stats(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _spread(values: Sequence[float]) -> float:
    q1, median, q3 = stats(values)
    if q3 == q1:
        return 0.0
    return (q3 - q1) / abs(median) if median else float("inf")


def _change(base_median: float, new_median: float, sign: float) -> float:
    """Relative change of the median, positive when worse."""
    if base_median:
        return sign * (new_median - base_median) / abs(base_median)
    if new_median == base_median:
        return 0.0
    return math.copysign(math.inf, sign * new_median)


def verdict(base: Sequence[float], new: Sequence[float], better: str, bound: float) -> str:
    _, base_median, _ = stats(base)
    _, new_median, _ = stats(new)
    sign = 1.0 if better == "lower" else -1.0
    change = _change(base_median, new_median, sign)
    if max(_spread(base), _spread(new)) > bound:
        if all(sign * (n - b) < 0 for n in new for b in base):
            return "better"
        if change > bound and all(sign * (n - b) > 0 for n in new for b in base):
            return "worse"
        return "unresolved"
    if change > bound:
        return "worse"
    if -change > _spread(base):
        return "better"
    return "within"


def compare(
    base: Mapping[Tuple[str, str], List[float]],
    new: Optional[Mapping[Tuple[str, str], List[float]]],
    declared: Mapping[str, Mapping[str, object]],
) -> List[dict]:
    """One row per (workload, metric) present in ``base``."""
    rows = []
    for (workload, name), values in sorted(base.items()):
        row = {"workload": workload, "metric": name, "base": stats(values), "n_base": len(values)}
        meta = declared.get(name)
        if new is not None and (workload, name) in new:
            row["new"] = stats(new[(workload, name)])
            row["n_new"] = len(new[(workload, name)])
            if meta is not None and "bound" in meta:
                row["verdict"] = verdict(
                    values, new[(workload, name)], str(meta["better"]), float(meta["bound"])
                )
        rows.append(row)
    return rows


def render(rows: Sequence[dict]) -> str:
    def line(workload: str, metric: str, base: str, new: str, verdict: str) -> str:
        return f"{workload:<20} {metric:<34} {base:<32} {new:<32} {verdict}"

    lines = [line("workload", "metric", "base q1/med/q3", "new q1/med/q3", "verdict")]
    for row in rows:
        base = "/".join(f"{v:.4g}" for v in row["base"])
        new = "/".join(f"{v:.4g}" for v in row["new"]) if "new" in row else "-"
        lines.append(line(row["workload"], row["metric"], base, new, row.get("verdict", "-")))
    return "\n".join(lines)
