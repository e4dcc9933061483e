#!/usr/bin/env python
"""Benchmark harness for the distributed campaign queue (:mod:`repro.queue`).

Times the quick-profile evaluation grid under four modes:

``serial``
    ``run_experiment(spec, jobs=1)`` against a fresh artefact cache — the
    baseline: one process walking the whole plan with caching enabled (the
    queue always runs with the cache on, so the baseline does too).
``queue_1worker``
    ``RunLedger.submit`` + ``repro.queue.work(cache, run_id, workers=1)``:
    one in-process worker draining the run ledger.
``queue_2workers``
    The same run drained by ``repro.queue.work(cache, run_id, workers=2)``:
    two spawned worker processes sharing the ledger — the path
    ``repro queue work --workers 2`` and ``run_experiment(jobs=2)`` take,
    interpreter start-up included, with full lease/heartbeat/scan machinery
    under real contention.
``resume``
    A run killed after half its units and drained to completion by a second
    worker — measures that resuming re-executes only the units that had not
    completed (the ledger's whole point).

Every mode must produce byte-identical ``ResultSet.to_records()`` output;
the harness fails loudly if any run diverges, if the 2-worker drain is
slower than the serial baseline (beyond ``--max-overhead``), or if the
resumed run re-executes units that were already done.  Reps are paired
(serial, 1 worker, 2 workers, then the reverse, ...) and the overhead gate
compares the 2-worker drain against the serial baseline *within* each
matched rep, where machine drift on a shared box cancels; the per-rep
timings and the paired ratios are all recorded in the report.  Results are
written to ``BENCH_queue.json`` (override with ``--output``)::

    python benchmarks/bench_queue.py
    python benchmarks/bench_queue.py --models KNN DNN --reps 5
"""

from __future__ import annotations

import argparse
import tempfile
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import harness  # first: puts src/ on sys.path
from repro.api import PROFILES, ExperimentSpec, run_experiment
from repro.eval.engine import ArtifactCache
from repro.queue import QueueWorker, RunLedger, WorkerOptions, collect_results, work

OPTIONS = WorkerOptions(poll_s=0.02)


def _bench_resume(spec: ExperimentSpec) -> Dict[str, object]:
    """Kill a run halfway, resume it, and account for every re-execution."""
    with tempfile.TemporaryDirectory(prefix="repro-bench-queue-") as root:
        cache = ArtifactCache(Path(root) / "cache")
        ledger = RunLedger.submit(spec, cache)
        total = len(ledger.units)
        half = total // 2
        first = QueueWorker(
            ledger, "bench:first", WorkerOptions(poll_s=0.02, max_units=half)
        )
        first.run()  # "dies" at a unit boundary after `half` units
        done_before = sum(
            1 for s in ledger.states().values() if s.state == "done"
        )
        second = QueueWorker(ledger, "bench:resume", OPTIONS)
        elapsed, complete = harness.timed(second.run)
        records = collect_results(ledger).to_records()
        return {
            "units_total": total,
            "units_done_before_resume": done_before,
            "units_reexecuted_on_resume": second.executed,
            "resume_seconds": round(elapsed, 4),
            "complete": complete,
            "records": records,
        }


def measure(args: argparse.Namespace) -> Dict[str, object]:
    """Execute the benchmark modes and return the report sections."""
    spec = ExperimentSpec(models=tuple(args.models), profile=args.profile, name="bench_queue")
    stages = spec.resolve_plan().stage_counts()
    reps = args.reps
    print(
        f"plan: {sum(stages.values())} units "
        f"({', '.join(f'{v} {k}' for k, v in stages.items() if v)}), "
        f"{reps} paired reps per mode"
    )

    records: Dict[str, List[List[dict]]] = {}

    def arm(mode: str, workers: int) -> Callable[[], float]:
        """A fresh-cache serial run (``workers=0``) or ``workers``-worker drain."""

        def sample() -> float:
            with tempfile.TemporaryDirectory(prefix="repro-bench-queue-") as root:
                cache = ArtifactCache(Path(root) / "cache")
                if workers == 0:
                    elapsed, results = harness.timed(run_experiment, spec, jobs=1, cache=cache)
                else:
                    ledger = RunLedger.submit(spec, cache)
                    elapsed, _ = harness.timed(
                        work, cache, ledger.run_id, workers=workers, options=OPTIONS
                    )
                    results = collect_results(ledger)
                records.setdefault(mode, []).append(results.to_records())
            print(f"  rep {len(records[mode])}/{reps} {mode}: {elapsed:.2f}s", flush=True)
            return elapsed

        return sample

    modes = {"serial": 0, "queue_1worker": 1, "queue_2workers": 2}
    run = harness.paired(
        {mode: arm(mode, workers) for mode, workers in modes.items()},
        reps,
        ratio=("queue_2workers", "serial"),
    )
    rep_timings: Dict[str, List[float]] = run["samples"]
    timings = {mode: min(values) for mode, values in rep_timings.items()}
    paired = [round(ratio, 4) for ratio in run["ratios"]]
    for mode in modes:
        print(f"  {mode}: best {timings[mode]:.2f}s")
    print(f"  paired 2-worker/serial ratios per rep: {paired} (best {min(paired)})")
    print("resume (killed at half, drained by a second worker) ...", flush=True)
    resume = _bench_resume(spec)
    resume_records = resume.pop("records")
    print(
        f"  resume: {resume['units_done_before_resume']} done before kill, "
        f"{resume['units_reexecuted_on_resume']} re-executed of "
        f"{resume['units_total']} total"
    )

    reference = records["serial"][0]
    identical = {
        mode: all(rows == reference for rows in runs) for mode, runs in records.items()
    }
    identical["resume"] = resume_records == reference
    speedups = {
        "queue_1worker_vs_serial": timings["serial"] / max(timings["queue_1worker"], 1e-9),
        "queue_2workers_vs_serial": timings["serial"] / max(timings["queue_2workers"], 1e-9),
    }
    print(
        f"speedups vs serial: 1 worker {speedups['queue_1worker_vs_serial']:.2f}x, "
        f"2 workers {speedups['queue_2workers_vs_serial']:.2f}x"
    )
    return {
        "profile": args.profile,
        "models": list(args.models),
        "workers": "queue_1worker in-process; queue_2workers spawned processes "
        "(repro.queue.work, interpreter start-up included)",
        "reps": reps,
        "plan": stages,
        "timings_s": {mode: round(value, 4) for mode, value in timings.items()},
        "rep_timings_s": {
            mode: [round(value, 4) for value in values]
            for mode, values in rep_timings.items()
        },
        "paired_overhead": {
            "ratios_2workers_vs_serial": paired,
            "best": min(paired),
        },
        "speedups": {name: round(value, 3) for name, value in speedups.items()},
        "identical": identical,
        "resume": resume,
    }


def gate(args: argparse.Namespace, report: Dict[str, object], gates: harness.Gates) -> None:
    gates.identity(report["identical"], "results diverged from serial in")
    resume = report["resume"]
    reexecuted = resume["units_reexecuted_on_resume"]
    expected = resume["units_total"] - resume["units_done_before_resume"]
    gates.check(
        "resume", reexecuted, expected, reexecuted == expected,
        f"resume re-executed {reexecuted} units, "
        f"expected exactly the {expected} not completed before the kill",
    )
    gates.at_most("max_overhead", report["paired_overhead"]["best"], args.max_overhead,
                  "best paired 2-worker/serial wall-clock ratio", enabled=args.max_overhead > 0)


def build_parser() -> argparse.ArgumentParser:
    parser = harness.parser("queue", __doc__)
    parser.add_argument("--models", nargs="+", default=["KNN", "DNN", "AdvLoc", "WiDeep"],
                        help="registry names of the models in the grid")
    parser.add_argument("--profile", default="quick", choices=sorted(PROFILES))
    parser.add_argument("--reps", type=int, default=5,
                        help="paired repetitions per timed mode (best-of)")
    parser.add_argument("--max-overhead", type=float, default=1.0,
                        help="fail when the best matched-rep ratio of "
                        "queue_2workers to serial wall-clock exceeds this "
                        "factor (0 disables the gate)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    return harness.main("queue", build_parser(), measure, gate, argv)


if __name__ == "__main__":
    raise SystemExit(main())
