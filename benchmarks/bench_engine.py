#!/usr/bin/env python
"""Benchmark harness for the cache-aware evaluation engine.

Times the quick-profile evaluation grid through
:func:`repro.api.run_experiment` under four execution modes:

``serial_cold``
    ``jobs=1``, no cache — the in-process serial engine and the baseline
    every speedup is measured against.
``parallel_cold``
    ``jobs=N`` (N = ``--jobs``, default ``min(4, cpu_count)``), no cache —
    N spawned queue workers draining a throwaway run ledger, sharing
    artefacts through a temporary cache.
``cached_cold``
    ``jobs=1`` against a fresh cache directory — measures the one-time cost
    of populating the on-disk artefact cache.
``cached_warm``
    ``jobs=1`` against the now-populated cache — every campaign, trained
    model and attacked fingerprint batch is served from disk.

Every mode must produce byte-identical ``ResultSet.to_records()`` output; the
harness fails loudly if any run diverges.  Results are written to
``BENCH_engine.json`` (override with ``--output``) so successive PRs have a
performance trajectory to compare against::

    python benchmarks/bench_engine.py
    python benchmarks/bench_engine.py --models KNN DNN CALLOC --jobs 8

Exit status is non-zero when results diverge between modes, when the best
speedup (parallel or warm-cache) falls below ``--min-speedup`` (default 2.0;
pass 0 to disable the gate), or — on machines with at least two CPUs —
when the queue path fails to beat serial by ``--min-parallel``
(default 1.5).  On a single-core box parallel execution cannot win by
construction, so the parallel gate degrades to a no-pessimisation check:
the queue overhead must stay under ``1/min-parallel`` of the serial time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:  # allow running without installing
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import __version__  # noqa: E402
from repro.api import PROFILES, ExperimentSpec, run_experiment  # noqa: E402

DEFAULT_MODELS = ("KNN", "DNN", "AdvLoc", "WiDeep")


def _time_run(spec: ExperimentSpec, jobs: int, cache: object) -> tuple:
    start = time.perf_counter()
    results = run_experiment(spec, jobs=jobs, cache=cache)
    elapsed = time.perf_counter() - start
    return elapsed, results.to_records()


def run_benchmark(
    models: Sequence[str] = DEFAULT_MODELS,
    profile: str = "quick",
    jobs: int = 0,
    output: Optional[Path] = None,
) -> Dict[str, object]:
    """Execute the four benchmark modes and return the report dictionary."""
    if profile not in PROFILES:
        raise SystemExit(f"unknown profile '{profile}'; expected one of {sorted(PROFILES)}")
    if jobs <= 0:
        # At least 2 workers so the queue path is always exercised
        # (and cross-checked for bit-identity), even on single-core boxes.
        jobs = max(2, min(4, os.cpu_count() or 1))
    spec = ExperimentSpec(models=tuple(models), profile=profile, name="bench_engine")
    spec.validate()
    config = spec.config()
    scenarios = spec.resolve_scenarios(config)
    grid = {
        "models": list(models),
        "buildings": list(config.buildings),
        "devices": list(config.devices),
        "scenarios": len(scenarios),
        "records": len(models) * len(config.buildings) * len(config.devices) * len(scenarios),
    }
    print(f"grid: {grid['records']} records "
          f"({len(models)} models x {len(config.buildings)} buildings x "
          f"{len(config.devices)} devices x {len(scenarios)} scenarios)")

    timings: Dict[str, float] = {}
    records: Dict[str, List[dict]] = {}

    print("serial_cold   (jobs=1, no cache) ...", flush=True)
    timings["serial_cold"], records["serial_cold"] = _time_run(spec, 1, False)
    print(f"  {timings['serial_cold']:.2f}s")

    print(f"parallel_cold (jobs={jobs}, no cache) ...", flush=True)
    timings["parallel_cold"], records["parallel_cold"] = _time_run(spec, jobs, False)
    print(f"  {timings['parallel_cold']:.2f}s")

    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as cache_dir:
        print("cached_cold   (jobs=1, fresh cache) ...", flush=True)
        timings["cached_cold"], records["cached_cold"] = _time_run(spec, 1, cache_dir)
        print(f"  {timings['cached_cold']:.2f}s")

        print("cached_warm   (jobs=1, warm cache) ...", flush=True)
        timings["cached_warm"], records["cached_warm"] = _time_run(spec, 1, cache_dir)
        print(f"  {timings['cached_warm']:.2f}s")

    reference = records["serial_cold"]
    identical = {mode: rows == reference for mode, rows in records.items()}
    speedups = {
        "parallel_vs_serial": timings["serial_cold"] / max(timings["parallel_cold"], 1e-9),
        "warm_cache_vs_serial": timings["serial_cold"] / max(timings["cached_warm"], 1e-9),
        "cached_cold_overhead": timings["cached_cold"] / max(timings["serial_cold"], 1e-9),
    }
    report: Dict[str, object] = {
        "benchmark": "engine",
        "version": __version__,
        "created_unix": time.time(),
        "machine": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
        },
        "profile": profile,
        "jobs": jobs,
        "grid": grid,
        "timings_s": {mode: round(value, 4) for mode, value in timings.items()},
        "speedups": {name: round(value, 3) for name, value in speedups.items()},
        "identical": identical,
    }
    if output is not None:
        output.parent.mkdir(parents=True, exist_ok=True)
        output.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {output}")
    print(
        f"speedups: parallel {speedups['parallel_vs_serial']:.2f}x, "
        f"warm cache {speedups['warm_cache_vs_serial']:.2f}x"
    )
    return report


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--models", nargs="+", default=list(DEFAULT_MODELS),
                        help="registry names of the models in the grid")
    parser.add_argument("--profile", default="quick", choices=sorted(PROFILES))
    parser.add_argument("--jobs", type=int, default=0,
                        help="queue workers for parallel_cold "
                        "(default: max(2, min(4, cpus)))")
    parser.add_argument("--output", type=Path, default=REPO_ROOT / "BENCH_engine.json")
    parser.add_argument("--min-speedup", type=float, default=2.0,
                        help="fail unless max(parallel, warm-cache) speedup reaches "
                        "this factor (0 disables the gate)")
    parser.add_argument("--min-parallel", type=float, default=1.5,
                        help="with >=2 CPUs, fail unless the queue workers beat "
                        "serial by this factor; with 1 CPU, fail if queue overhead "
                        "pushes parallel past 1/this of serial (0 disables)")
    args = parser.parse_args(argv)

    report = run_benchmark(args.models, args.profile, args.jobs, args.output)
    if not all(report["identical"].values()):
        diverged = [mode for mode, same in report["identical"].items() if not same]
        print(f"FAIL: results diverged from serial_cold in: {diverged}", file=sys.stderr)
        return 1
    best = max(report["speedups"]["parallel_vs_serial"],
               report["speedups"]["warm_cache_vs_serial"])
    if args.min_speedup > 0 and best < args.min_speedup:
        print(
            f"FAIL: best speedup {best:.2f}x below required {args.min_speedup:.2f}x",
            file=sys.stderr,
        )
        return 1
    parallel = report["speedups"]["parallel_vs_serial"]
    cpus = report["machine"]["cpu_count"] or 1
    if args.min_parallel > 0:
        if cpus >= 2 and parallel < args.min_parallel:
            print(
                f"FAIL: parallel speedup {parallel:.2f}x below required "
                f"{args.min_parallel:.2f}x on {cpus} CPUs",
                file=sys.stderr,
            )
            return 1
        if cpus < 2 and parallel < 1.0 / args.min_parallel:
            # One core: N workers cannot win, but they must not lose badly
            # either — this is the regression this benchmark exists to catch
            # (parallel used to run *slower* than serial).
            print(
                f"FAIL: parallel ran {1.0 / max(parallel, 1e-9):.2f}x slower than "
                f"serial on a single CPU (transport overhead regression)",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
