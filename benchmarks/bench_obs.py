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
import statistics
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

import harness  # first: puts src/ on sys.path
from repro.api import PROFILES, ExperimentSpec, LocalizationService, run_experiment
from repro.obs import events, trace
from repro.serve import ModelStore, ServiceClient
from repro.serve.aio.server import AioServerThread
from repro.serve.http import ServingApp


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


def _on_off(
    sample: Callable[[], float], reps: int, ratio: Tuple[str, str], unit: str, digits: int
) -> Dict[str, object]:
    """Paired reps of ``sample`` with tracing on and off; median of paired ratios.

    Shared 1-CPU runners drift in steps (cgroup quota refills, noisy
    neighbours arriving and leaving), so per-arm aggregates are biased by
    whichever arm got more samples on the fast side of a step.  Instead
    each rep runs both arms back-to-back (order alternating) and yields one
    on/off ratio; steps between reps cancel inside the pair, and the
    *median* over reps discards the pairs a step landed in the middle of.
    """

    def arm(enabled: bool) -> Callable[[], float]:
        def run() -> float:
            trace.set_enabled(enabled)
            return sample()

        return run

    try:
        run = harness.paired({"on": arm(True), "off": arm(False)}, reps, ratio=ratio)
    finally:
        trace.set_enabled(True)
    paired = [round(v, 4) for v in run["ratios"]]
    median = round(statistics.median(run["ratios"]), 4)
    print(f"  paired ratios {paired} (median {median})")
    return {
        "reps": reps,
        f"telemetry_on_{unit}": [round(v, digits) for v in run["samples"]["on"]],
        f"telemetry_off_{unit}": [round(v, digits) for v in run["samples"]["off"]],
        "paired_ratios": paired,
        "ratio": median,
    }


def bench_serving(
    store: ModelStore,
    endpoint: str,
    queries: np.ndarray,
    threads: int,
    reps: int,
) -> Dict[str, object]:
    """Paired on/off serving throughput (requests/s); median of paired ratios."""
    app = ServingApp(store, max_batch=64)
    connect = harness.in_process(app, endpoint)
    try:
        app.localize(endpoint, queries[0])  # untimed model load
        paired = _on_off(
            lambda: harness.replay(connect, queries, threads)["requests_per_s"],
            reps, ratio=("on", "off"), unit="rps", digits=2,
        )
    finally:
        app.close()
    return {"requests_per_rep": int(queries.shape[0]), "client_threads": threads, **paired}


def bench_engine(spec: ExperimentSpec, reps: int) -> Dict[str, object]:
    """Paired on/off cold serial engine wall time; median of *paired*
    per-rep ratios (see ``_on_off`` for why pairing beats per-arm
    aggregates on step-drifting runners).  Many short pairs beat few long
    ones here: the noise decorrelates within a single run, so the pair-ratio
    spread shrinks as 1/sqrt(reps).  The ratio is off/on wall time, so
    throughput-style: >= 1 means tracing costs nothing."""
    return _on_off(
        lambda: harness.timed(run_experiment, spec, cache=False)[0],
        reps, ratio=("off", "on"), unit="s", digits=4,
    )


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
        with AioServerThread(store, max_batch=64) as server:
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


def measure(args: argparse.Namespace) -> Dict[str, object]:
    model, building = args.model, args.building
    spec = ExperimentSpec(
        models=(model,),
        buildings=(building,),
        profile="quick",
        devices=("OP3",),
        attack_methods=("FGSM",),
        epsilons=(0.1,),
        phi_percents=(10.0,),
    )
    print(f"training {model} on {building} (quick profile) ...", flush=True)
    service, _, queries = harness.served_model(
        model, building, PROFILES["quick"](), args.requests, cache=False
    )

    with tempfile.TemporaryDirectory(prefix="repro-bench-obs-") as tmp:
        store = ModelStore(Path(tmp) / "store")
        store.publish(service, model.lower(), tags=("bench",))
        endpoint = f"{model.lower()}@bench"
        _telemetry_setup(Path(tmp) / "telemetry")
        try:
            print(
                f"serving: {args.serving_reps} paired reps x {args.requests} "
                f"requests ({args.threads} threads), telemetry on vs off ...",
                flush=True,
            )
            serving = bench_serving(store, endpoint, queries, args.threads, args.serving_reps)

            print(
                f"engine: {args.engine_reps} paired cold serial reps ...",
                flush=True,
            )
            engine = bench_engine(spec, args.engine_reps)

            print("identity invariants with tracing on ...", flush=True)
            identical = check_identity(spec, service, store, endpoint, queries[:64])
            print(f"  {identical}")
        finally:
            _telemetry_teardown()

    return {
        "model": model,
        "building": building,
        "serving": serving,
        "engine": engine,
        "identical": identical,
    }


def gate(args: argparse.Namespace, report: Dict[str, object], gates: harness.Gates) -> None:
    gates.identity(report["identical"], "identity invariants broken with tracing on")
    gates.at_least("min_serving_ratio", report["serving"]["ratio"], args.min_serving_ratio,
                   "serving throughput with telemetry on/off",
                   enabled=args.min_serving_ratio > 0)
    gates.at_least("min_engine_ratio", report["engine"]["ratio"], args.min_engine_ratio,
                   "cold serial engine speed with tracing on/off",
                   enabled=args.min_engine_ratio > 0)


def build_parser() -> argparse.ArgumentParser:
    parser = harness.parser("obs", __doc__)
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
    parser.add_argument("--min-serving-ratio", type=float, default=0.97,
                        help="fail unless telemetry-on serving throughput "
                        "reaches this factor of telemetry-off (0 disables)")
    parser.add_argument("--min-engine-ratio", type=float, default=0.98,
                        help="fail unless the traced cold serial engine "
                        "reaches this factor of the untraced one (0 disables)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    return harness.main("obs", build_parser(), measure, gate, argv)


if __name__ == "__main__":
    raise SystemExit(main())
