"""Program processes owned by the benchmark.

``python -m bench.child main SPANS -- ARGS...``
    Install the layer wrappers, then run ``repro.reproduce.main(ARGS)``
    exactly as the ``repro`` command would (the traced ``artefact`` pass and
    the traced ``serve --aio`` server), and write the spans to ``SPANS``.
``python -m bench.child drain SPEC CACHE RUN_ID WORKERS [SPANS]``
    ``RunLedger.submit`` the spec into ``CACHE`` as ``RUN_ID``, drain it with
    ``repro.queue.work(cache, run_id, workers=WORKERS)``, collect the
    records, and print one JSON line of timings.  With ``SPANS`` the
    wrappers are installed first (before any ``QueueWorker`` exists) and
    spans written; a drain by several workers then spawns its own worker
    processes, each of which installs the wrappers and calls
    ``QueueWorker(...).run()`` as ``work`` would, writing
    ``SPANS.worker<i>``.

Every drain runs in a fresh interpreter so that no process-level memo of a
previous drain (campaigns, trained models, surrogates) can make it faster.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import sys
import time
from pathlib import Path
from typing import List, Optional


def canonical_sha(records) -> str:
    text = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _traced(spans_path: Optional[str]):
    """Install wrappers + exporter when tracing; returns a finish callback."""
    if spans_path is None:
        return lambda: None
    from repro.obs import trace

    from .spans import Collector
    from .wrappers import install

    collector = Collector()
    trace.add_exporter(collector)
    installed = install(collector)

    def finish() -> None:
        installed.restore()
        trace.remove_exporter(collector)
        collector.write(Path(spans_path))

    return finish


def main_role(spans_path: str, argv: List[str]) -> int:
    finish = _traced(spans_path)
    from repro.reproduce import main

    try:
        return main(argv)
    finally:
        finish()


def worker_entry(cache_dir: str, run_id: str, worker_id: str, spans_path: str) -> None:
    """A traced queue worker process: wrappers first, then the worker loop.

    What ``repro.queue.worker._work_entry`` does in a worker that
    ``repro.queue.work`` spawns, with the wrappers installed before the
    ``QueueWorker`` exists.
    """
    from repro.eval.engine import ArtifactCache
    from repro.obs import events, trace
    from repro.queue import QueueWorker, RunLedger

    finish = _traced(spans_path)
    cache = ArtifactCache(cache_dir)
    if trace.telemetry_enabled():
        events.configure_sink(cache.root / "telemetry")
    try:
        QueueWorker(RunLedger.open(cache, run_id), worker_id).run()
    finally:
        events.configure_sink(None)
        finish()


def _traced_workers(cache, run_id: str, workers: int, spans_path: str) -> None:
    from repro.queue.worker import default_worker_id

    # Imported by module name so that the spawned processes can find it
    # (this file may be running as ``__main__``).
    from bench.child import worker_entry as target

    context = multiprocessing.get_context("spawn")
    procs = [
        context.Process(target=target, args=(
            str(cache.root), run_id, f"{default_worker_id()}.{index}",
            f"{spans_path}.worker{index}",
        ))
        for index in range(workers)
    ]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join()


def drain_role(spec_path: str, cache_dir: str, run_id: str, workers: int,
               spans_path: Optional[str]) -> int:
    from repro.api import ExperimentSpec
    from repro.eval.engine import ArtifactCache
    from repro.obs import events, trace
    from repro.queue import STATE_DONE, RunLedger, collect_results, work

    ready_unix = time.time()
    finish = _traced(spans_path)
    spec = ExperimentSpec.load(spec_path)
    cache = ArtifactCache(cache_dir)
    # The event log a spawned queue worker keeps under the shared cache.
    if trace.telemetry_enabled():
        events.configure_sink(cache.root / "telemetry")
    start = time.perf_counter()
    ledger = RunLedger.submit(spec, cache, run_id=run_id)
    submitted = time.perf_counter()
    drain_start_unix = time.time()
    if spans_path is not None and workers > 1:
        _traced_workers(cache, run_id, workers, spans_path)
    else:
        work(cache, run_id, workers=workers)
    drained = time.perf_counter()
    drain_end_unix = time.time()
    events.configure_sink(None)
    finish()
    states = ledger.states()
    done = sum(1 for state in states.values() if state.state == STATE_DONE)
    records = collect_results(ledger, allow_partial=True).to_records()
    print(json.dumps({
        "workers": workers,
        "ready_unix": ready_unix,
        "submit_s": submitted - start,
        "drain_s": drained - submitted,
        "drain_window": [drain_start_unix, drain_end_unix],
        "units": len(states),
        "done": done,
        "records_sha256": canonical_sha(records),
    }))
    return 0


def main(argv: List[str]) -> int:
    role, rest = argv[0], argv[1:]
    if role == "main":
        spans_path, separator, *program_argv = rest
        if separator != "--":
            raise SystemExit("usage: python -m bench.child main SPANS -- ARGS...")
        return main_role(spans_path, program_argv)
    if role == "drain":
        spec, cache, run_id, workers, *spans = rest
        return drain_role(spec, cache, run_id, int(workers), spans[0] if spans else None)
    raise SystemExit(f"unknown role {role!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
