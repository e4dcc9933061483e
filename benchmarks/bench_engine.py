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
import os
import tempfile
from typing import Dict, Optional, Sequence

import harness  # first: puts src/ on sys.path
from repro.api import PROFILES, ExperimentSpec, run_experiment


def measure(args: argparse.Namespace) -> Dict[str, object]:
    """Execute the four benchmark modes and return the report sections."""
    # At least 2 workers so the queue path is always exercised
    # (and cross-checked for bit-identity), even on single-core boxes.
    jobs = args.jobs if args.jobs > 0 else max(2, min(4, os.cpu_count() or 1))
    models = args.models
    spec = ExperimentSpec(models=tuple(models), profile=args.profile, name="bench_engine")
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
    records: Dict[str, list] = {}
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as cache_dir:
        for mode, mode_jobs, cache, note in (
            ("serial_cold", 1, False, "no cache"),
            ("parallel_cold", jobs, False, "no cache"),
            ("cached_cold", 1, cache_dir, "fresh cache"),
            ("cached_warm", 1, cache_dir, "warm cache"),
        ):
            print(f"{mode:<13} (jobs={mode_jobs}, {note}) ...", flush=True)
            timings[mode], results = harness.timed(
                run_experiment, spec, jobs=mode_jobs, cache=cache
            )
            records[mode] = results.to_records()
            print(f"  {timings[mode]:.2f}s")

    reference = records["serial_cold"]
    speedups = {
        "parallel_vs_serial": timings["serial_cold"] / max(timings["parallel_cold"], 1e-9),
        "warm_cache_vs_serial": timings["serial_cold"] / max(timings["cached_warm"], 1e-9),
        "cached_cold_overhead": timings["cached_cold"] / max(timings["serial_cold"], 1e-9),
    }
    print(
        f"speedups: parallel {speedups['parallel_vs_serial']:.2f}x, "
        f"warm cache {speedups['warm_cache_vs_serial']:.2f}x"
    )
    return {
        "profile": args.profile,
        "jobs": jobs,
        "grid": grid,
        "timings_s": {mode: round(value, 4) for mode, value in timings.items()},
        "speedups": {name: round(value, 3) for name, value in speedups.items()},
        "identical": {mode: rows == reference for mode, rows in records.items()},
    }


def gate(args: argparse.Namespace, report: Dict[str, object], gates: harness.Gates) -> None:
    gates.identity(report["identical"], "results diverged from serial_cold in")
    speedups = report["speedups"]
    best = max(speedups["parallel_vs_serial"], speedups["warm_cache_vs_serial"])
    gates.at_least("min_speedup", best, args.min_speedup, "best of parallel and warm-cache "
                   "speedup", enabled=args.min_speedup > 0)
    cpus = os.cpu_count() or 1
    # One core: N workers cannot win, but they must not lose badly either —
    # this is the regression this benchmark exists to catch (parallel used
    # to run *slower* than serial) — so the floor there is 1/min_parallel.
    floor = args.min_parallel
    if cpus < 2 and args.min_parallel > 0:
        floor = 1.0 / args.min_parallel
    gates.at_least("min_parallel", speedups["parallel_vs_serial"], floor,
                   f"parallel speedup on {cpus} CPUs", enabled=args.min_parallel > 0)


def build_parser() -> argparse.ArgumentParser:
    parser = harness.parser("engine", __doc__)
    parser.add_argument("--models", nargs="+", default=["KNN", "DNN", "AdvLoc", "WiDeep"],
                        help="registry names of the models in the grid")
    parser.add_argument("--profile", default="quick", choices=sorted(PROFILES))
    parser.add_argument("--jobs", type=int, default=0,
                        help="queue workers for parallel_cold "
                        "(default: max(2, min(4, cpus)))")
    parser.add_argument("--min-speedup", type=float, default=2.0,
                        help="fail unless max(parallel, warm-cache) speedup reaches "
                        "this factor (0 disables the gate)")
    parser.add_argument("--min-parallel", type=float, default=1.5,
                        help="with >=2 CPUs, fail unless the queue workers beat "
                        "serial by this factor; with 1 CPU, fail if queue overhead "
                        "pushes parallel past 1/this of serial (0 disables)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    return harness.main("engine", build_parser(), measure, gate, argv)


if __name__ == "__main__":
    raise SystemExit(main())
