"""What the ``benchmarks/bench_*.py`` performance scripts share.

Each script keeps its workload, its identity checks and its gates; this
module holds the rest:

* the ``src/`` path shim, so a script runs from a checkout without installing;
* :func:`parser` and :func:`main` — the common ``--output`` flag, and one
  measure → gate → write → report sequence;
* :class:`Gates` — each gate's statistic, threshold and verdict, written into
  the report, and every failure printed to stderr with exit status 1;
* :func:`paired` — arms run back to back in alternating order, one ratio per
  rep, so drift of a shared machine cancels inside each pair;
* :func:`replay` — single-fingerprint requests from concurrent client threads;
* :func:`served_model` — a trained service and test queries tiled to length.

Every report is one JSON envelope: ``benchmark``, ``version``,
``created_unix``, ``machine`` and ``gates``, then the script's own sections
under their own keys.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import threading
import time
from contextlib import nullcontext
from functools import partial
from pathlib import Path
from typing import (
    Any,
    Callable,
    ContextManager,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:  # allow running without installing
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import __version__  # noqa: E402
from repro.api import LocalizationService  # noqa: E402
from repro.data.campaign import LocalizationCampaign  # noqa: E402
from repro.eval import EvaluationConfig  # noqa: E402
from repro.eval.engine import ArtifactCache, simulate_campaign  # noqa: E402
from repro.serve.gateway import percentile  # noqa: E402

#: One client's ``localize(fingerprint) -> LocalizationResult``.
Localize = Callable[[np.ndarray], Any]


class Gates:
    """Each gate's statistic, threshold and verdict, and every failure's message."""

    def __init__(self) -> None:
        self.table: Dict[str, Dict[str, object]] = {}
        self.failures: List[str] = []

    def check(
        self,
        name: str,
        statistic: object,
        threshold: object,
        passed: bool,
        failure: str,
        enabled: bool = True,
    ) -> None:
        """Record gate ``name``; a disabled gate reads ``off`` and never fails."""
        verdict = "off" if not enabled else "pass" if passed else "fail"
        self.table[name] = {"statistic": statistic, "threshold": threshold, "verdict": verdict}
        if verdict == "fail":
            self.failures.append(f"{name}: {failure}")

    def at_least(
        self, name: str, statistic: float, threshold: float, what: str, enabled: bool = True
    ) -> None:
        self.check(name, statistic, threshold, statistic >= threshold,
                   f"{what} {statistic} < {threshold}", enabled)

    def at_most(
        self, name: str, statistic: float, threshold: float, what: str, enabled: bool = True
    ) -> None:
        self.check(name, statistic, threshold, statistic <= threshold,
                   f"{what} {statistic} > {threshold}", enabled)

    def identity(self, flags: Mapping[str, bool], what: str) -> None:
        """The ``identity`` gate: no flag may read false."""
        diverged = [name for name, same in flags.items() if not same]
        self.check("identity", len(diverged), 0, not diverged, f"{what}: {diverged}")

    def report(self) -> int:
        """Print every failure to stderr; the exit status (1 if any failed)."""
        for failure in self.failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        if not self.failures:
            print("all gates passed")
        return 1 if self.failures else 0


def parser(benchmark: str, doc: str) -> argparse.ArgumentParser:
    """A script's argument parser, holding the common ``--output`` flag."""
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--output", type=Path, default=REPO_ROOT / f"BENCH_{benchmark}.json")
    return parser


def main(
    benchmark: str,
    parser: argparse.ArgumentParser,
    measure: Callable[[argparse.Namespace], Dict[str, object]],
    gate: Callable[[argparse.Namespace, Dict[str, object], Gates], None],
    argv: Optional[Sequence[str]],
) -> int:
    """Parse, measure, gate, write the report to ``--output``; the exit status.

    The report is one envelope: the version/machine stamp and every gate's
    verdict, then the sections ``measure`` returned.  Gates run before it is
    written, so ``--output`` may name the file a gate compares against.
    """
    args = parser.parse_args(argv)
    sections = measure(args)
    gates = Gates()
    gate(args, sections, gates)
    report = {
        "benchmark": benchmark,
        "version": __version__,
        "created_unix": time.time(),
        "machine": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
        },
        "gates": gates.table,
        **sections,
    }
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")
    return gates.report()


def timed(fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Tuple[float, Any]:
    """``(wall seconds, fn(*args, **kwargs))``."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - start, result


def paired(
    arms: Mapping[str, Callable[[], float]], reps: int, ratio: Tuple[str, str]
) -> Dict[str, object]:
    """Run every arm once per rep, back to back, and one ratio per rep.

    Even reps run the arms in the given order and odd reps in reverse, so
    warm-up bias lands on each arm equally and a step in machine speed
    between reps cancels inside the pair.  Each arm returns its sample;
    ``ratio`` names the numerator and denominator arm of each rep's ratio.
    """
    samples: Dict[str, List[float]] = {name: [] for name in arms}
    ratios: List[float] = []
    order = list(arms)
    for rep in range(reps):
        for name in order if rep % 2 == 0 else reversed(order):
            samples[name].append(arms[name]())
        ratios.append(samples[ratio[0]][-1] / samples[ratio[1]][-1])
    return {"samples": samples, "ratios": ratios}


def in_process(app: Any, endpoint: str) -> Callable[[], ContextManager[Localize]]:
    """:func:`replay` connector: every caller shares ``app.localize(endpoint, ·)``."""
    return lambda: nullcontext(partial(app.localize, endpoint))


def replay(
    connect: Callable[[], ContextManager[Localize]], queries: np.ndarray, threads: int
) -> Dict[str, object]:
    """Replay ``queries`` as single-fingerprint requests from ``threads`` callers.

    Each caller thread enters ``connect()`` once (its own keep-alive client,
    say) and takes the next unsent query until none is left, so every query
    is sent exactly once.  Returns wall time, throughput, latency percentiles
    and each query's predicted label.
    """
    latencies: List[float] = [0.0] * queries.shape[0]
    labels: List[int] = [0] * queries.shape[0]
    cursor = iter(range(queries.shape[0]))
    lock = threading.Lock()

    def caller() -> None:
        with connect() as localize:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                start = time.perf_counter()
                result = localize(queries[index])
                latencies[index] = time.perf_counter() - start
                labels[index] = int(result.labels[0])

    pool = [threading.Thread(target=caller) for _ in range(threads)]
    start = time.perf_counter()
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    wall = time.perf_counter() - start
    return {
        "wall_s": round(wall, 4),
        "requests": queries.shape[0],
        "requests_per_s": round(queries.shape[0] / wall, 2),
        "latency_ms": {
            "mean": round(float(np.mean(latencies)) * 1000.0, 4),
            "p50": round(percentile(latencies, 50.0) * 1000.0, 4),
            "p99": round(percentile(latencies, 99.0) * 1000.0, 4),
            "max": round(max(latencies) * 1000.0, 4),
        },
        "labels": labels,
    }


def served_model(
    model: str, building: str, config: EvaluationConfig, requests: int, cache: object
) -> Tuple[LocalizationService, LocalizationCampaign, np.ndarray]:
    """A fitted ``model`` service for ``building``, its campaign, and queries.

    The queries are the first device's test fingerprints, tiled to
    ``requests`` rows.  ``cache`` is passed to the engine's cached units
    (``False`` trains afresh).
    """
    cache = ArtifactCache.coerce(cache)
    service = LocalizationService.trained_on(building, model=model, config=config, cache=cache)
    campaign, _ = simulate_campaign(building, config, cache)
    test = campaign.test_for(config.devices[0]).features
    return service, campaign, np.tile(test, (requests // test.shape[0] + 1, 1))[:requests]
