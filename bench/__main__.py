"""Command line: ``python -m bench run ...`` and ``python -m bench compare ...``.

``run`` prints a table per workload and, as its last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}`` — the ``BENCHMARK.json``
end-to-end metrics, or with ``--trace 1`` its per-layer metrics from the
traced rerun.  With several workloads the metric keys are
``<workload>/<metric>``.  It exits non-zero when any correctness check
fails (the metrics are still printed).
"""

from __future__ import annotations

import argparse
import compileall
import json
import sys
import traceback
from pathlib import Path
from typing import List, Optional

from .env import SRC, RunDir, check_checkout, environment_stamp


def _run(args: argparse.Namespace) -> int:
    from . import report
    from .metrics import MEASURED, end_to_end
    from .workloads import WORKLOADS, Context, Outcome

    benchmark = report.load_benchmark()
    declared = report.declared_metrics(benchmark)
    names = args.workload or [w["name"] for w in benchmark["workloads"]]
    unknown = sorted(set(names) - set(WORKLOADS))
    if unknown:
        raise SystemExit(f"error: unknown workload(s) {unknown}; choose from {sorted(WORKLOADS)}")
    if args.seconds is None:
        args.seconds = float(benchmark["run_seconds"])
    # Bytecode is the program's build product: compile it before timing so
    # the first pass in a fresh checkout is not charged for it.
    compileall.compile_dir(str(SRC), quiet=1)
    trace = bool(args.trace)
    document = {"environment": environment_stamp(), "seed": args.seed,
                "seconds": args.seconds, "trace": trace, "workloads": {}}
    final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        with RunDir(f"{name}-") as run:
            try:
                outcome = WORKLOADS[name](Context(args.seed, args.seconds, trace, run))
            except Exception:
                traceback.print_exc()
                outcome = Outcome({}, {"completed": False}, attempted=1, failed=1)
        if set(outcome.measured) != set(MEASURED[name]):
            outcome.checks["measured_complete"] = False
        entry = {"measured": {metric: {"value": float(value), "unit": declared[metric]["unit"]}
                              for metric, value in outcome.measured.items()}}
        sections = {"metrics": (lambda: end_to_end(name, outcome.measured), "end_to_end")}
        if trace:
            sections["layers"] = (lambda: outcome.layers or {}, "per_layer")
        for section, (values, key) in sections.items():
            try:
                entry[section] = report.with_units(values(), benchmark[key])
            except KeyError as error:
                print(f"{name}: {section}: missing {error}", file=sys.stderr)
                entry[section], outcome.checks[f"{section}_complete"] = {}, False
        ok = all(outcome.checks.values())
        document["workloads"][name] = {
            "ok": ok, "checks": outcome.checks, "attempted": outcome.attempted,
            "failed": outcome.failed, **entry, "details": outcome.details,
        }
        _print_workload(name, ok, outcome, entry)
        final["correct"] = final["correct"] and ok
        final["attempted"] += outcome.attempted
        final["failed"] += outcome.failed
        for metric, value in entry["layers" if trace else "metrics"].items():
            final["metrics"][metric if len(names) == 1 else f"{name}/{metric}"] = value
    if args.output is not None:
        with open(args.output, "a") as stream:
            stream.write(json.dumps(document, default=str) + "\n")
    print(json.dumps(final))
    return 0 if final["correct"] else 1


#: Table headings of the report sections.
SECTIONS = {
    "measured": "measured end-to-end",
    "metrics": "as listed in BENCHMARK.json",
    "layers": "per layer (traced rerun)",
}


def _print_workload(name: str, ok: bool, outcome, entry: dict) -> None:
    print(f"== {name}: {'ok' if ok else 'FAILED'} "
          f"(attempted {outcome.attempted}, failed {outcome.failed})")
    for check, passed in outcome.checks.items():
        print(f"   check {check}: {'ok' if passed else 'FAILED'}")
    for phase in outcome.details.get("phases", ()):
        print(f"   phase {json.dumps(phase)}")
    for section, heading in SECTIONS.items():
        if entry.get(section):
            print(f"   -- {heading}")
        for metric, value in entry.get(section, {}).items():
            print(f"   {metric:<36} {value['value']:>14.6g} {value['unit']}")


def _compare(args: argparse.Namespace) -> int:
    from . import compare, report

    declared = report.declared_metrics(report.load_benchmark())
    base, base_seconds = compare.load_runs(args.files[0])
    worst = 0
    for path in args.files[1:] or [None]:
        new, new_seconds = compare.load_runs(path) if path is not None else (None, base_seconds)
        seconds = base_seconds | new_seconds
        if len(seconds) > 1:
            # --seconds rescales every load phase: such runs measure different things.
            print(f"error: runs made with different --seconds {sorted(seconds)}", file=sys.stderr)
            return 2
        print(f"# base {args.files[0]}" + (f" vs new {path}" if path else ""))
        rows = compare.compare(base, new, declared)
        print(compare.render(rows))
        if any(row.get("verdict") == "worse" for row in rows):
            worst = 1
    return worst


def _trace_flag(value: str) -> int:
    if value not in ("0", "1"):
        raise argparse.ArgumentTypeError("--trace takes 0 or 1")
    return int(value)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run workloads and print their metrics")
    run.add_argument("--workload", action="extend", nargs="+", default=None,
                     help="workloads to run (default: every workload)")
    run.add_argument("--seed", type=int, default=0, help="input seed (default 0)")
    run.add_argument("--seconds", type=float, default=None,
                     help="how long the serving load lasts (default and the value to "
                     "compare at: run_seconds in BENCHMARK.json)")
    run.add_argument("--trace", nargs="?", const=1, default=0, type=_trace_flag,
                     help="also make a traced rerun and report per-layer metrics")
    run.add_argument("--output", type=Path, default=None,
                     help="append the full JSON report as one line to this file")
    cmp = sub.add_parser("compare", help="compare report files against BENCHMARK.json bounds")
    cmp.add_argument("files", nargs="+", type=Path,
                     help="base report file, then candidate report files")
    args = parser.parse_args(argv)
    check_checkout()
    if args.command == "run":
        return _run(args)
    return _compare(args)


if __name__ == "__main__":
    sys.exit(main())
