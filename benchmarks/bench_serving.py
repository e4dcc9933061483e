#!/usr/bin/env python
"""Benchmark harness for the production serving layer (``repro.serve``).

Measures the online-phase request path end to end — store-published model,
gateway routing, per-endpoint stats — against a per-request baseline:

``per_request``
    Every request is one ``Gateway.localize`` call of its own, routed and
    scored individually, with no batcher and no endpoint stats.
``micro_batched``
    ``ServingApp.localize``, the path every served request takes: requests
    from concurrent callers queue in the endpoint's
    :class:`~repro.serve.batching.MicroBatcher` and are flushed as one
    batched ``localize`` call of at most ``--max-batch`` fingerprints.

Both modes replay the same stream of single-fingerprint requests from
``--threads`` concurrent client threads and record per-request latency
(p50/p99) plus overall requests/sec.  Predictions are asserted bit-identical
between the two modes, against the direct
:meth:`LocalizationService.localize` call, and across the HTTP API
(``ServiceClient`` against a live ``repro serve`` server).

On top of the in-process modes, the full HTTP tier is driven end to end:

``http_aio_json`` / ``http_aio_binary`` / ``http_aio_msgpack``
    The asyncio front end (``repro serve``) per negotiated body codec
    (msgpack only when the library is installed).
``http_workers_json``
    ``--workers`` ``SO_REUSEPORT`` acceptor processes behind one port
    (``repro serve --workers N``).

Gate: on machines with >= N CPUs, N workers must reach
``--min-worker-speedup`` × one process without raising p99 (single-CPU boxes
only get a 0.8x no-pessimization floor).

Results are written to ``BENCH_serving.json`` (override with ``--output``)::

    python benchmarks/bench_serving.py
    python benchmarks/bench_serving.py --model CALLOC --requests 5000

Exit status is non-zero when predictions diverge anywhere, when the
micro-batched throughput falls below ``--min-speedup`` × the per-request
throughput (default 2.0; pass 0 to disable the gate), or when the
multi-worker gate above fails.
"""

from __future__ import annotations

import argparse
import os
import tempfile
import time
from contextlib import contextmanager
from functools import partial
from typing import Dict, Iterator, Optional, Sequence

import numpy as np

import harness  # first: puts src/ on sys.path
from repro.api import PROFILES
from repro.serve import ModelStore, ServiceClient
from repro.serve.aio.protocol import (
    CONTENT_JSON,
    CONTENT_MSGPACK,
    CONTENT_NDARRAY,
    msgpack_available,
)
from repro.serve.aio.server import AioServerThread
from repro.serve.aio.supervisor import ServeSupervisor
from repro.serve.http import ServingApp


def _over_http(base_url: str, endpoint: str, content_type: str = CONTENT_JSON):
    """:func:`harness.replay` connector: one keep-alive client per caller."""

    @contextmanager
    def connect() -> Iterator[harness.Localize]:
        with ServiceClient(base_url, content_type=content_type) as client:
            yield partial(client.localize, model=endpoint)

    return connect


def _show(result: Dict[str, object]) -> None:
    print(f"  {result['wall_s']}s ({result['requests_per_s']} req/s)")


def run_http_benchmark(
    store: ModelStore, endpoint: str, queries: np.ndarray, args: argparse.Namespace
) -> Dict[str, Dict[str, object]]:
    """Drive the full HTTP tier: the asyncio front end per body codec, then N workers."""
    modes: Dict[str, Dict[str, object]] = {}

    aio_bodies = [("http_aio_json", CONTENT_JSON), ("http_aio_binary", CONTENT_NDARRAY)]
    if msgpack_available():
        aio_bodies.append(("http_aio_msgpack", CONTENT_MSGPACK))
    with AioServerThread(store, max_batch=args.max_batch) as aio:
        for mode, content_type in aio_bodies:
            print(f"{mode} (asyncio front end, {content_type}) ...", flush=True)
            connect = _over_http(aio.base_url, endpoint, content_type)
            for _ in range(2):
                # Untimed: first-request model load must not skew the latency window.
                with connect() as localize:
                    localize(queries[0])
            modes[mode] = harness.replay(connect, queries, args.threads)
            _show(modes[mode])

    workers = args.workers
    if workers > 1:
        print(f"http_workers_json ({workers} SO_REUSEPORT processes) ...", flush=True)
        with ServeSupervisor(
            str(store.root),
            port=0,
            workers=workers,
            max_batch=args.max_batch,
        ) as supervisor:
            supervisor.wait_until_ready(timeout=120.0)
            base_url = f"http://127.0.0.1:{supervisor.port}"
            # Warm every worker: new connections land on kernel-balanced
            # listeners, so probe until each process has loaded the model.
            warm: set = set()
            deadline = time.perf_counter() + 60.0
            while len(warm) < workers and time.perf_counter() < deadline:
                with ServiceClient(base_url) as probe:
                    probe.localize(queries[0], model=endpoint)
                    warm.add(probe.health().get("worker"))
            modes["http_workers_json"] = harness.replay(
                _over_http(base_url, endpoint), queries, args.threads
            )
        _show(modes["http_workers_json"])
    return modes


def measure(args: argparse.Namespace) -> Dict[str, object]:
    """Run both serving modes plus the HTTP tier; return the report sections."""
    model, threads = args.model, args.threads
    print(f"training {model} on {args.building} ({args.profile} profile) ...", flush=True)
    service, _, queries = harness.served_model(
        model, args.building, PROFILES[args.profile](), args.requests, cache=not args.no_cache
    )
    direct_labels = [int(v) for v in service.localize(queries).labels]

    with tempfile.TemporaryDirectory(prefix="repro-bench-store-") as store_dir:
        store = ModelStore(store_dir)
        version = store.publish(service, model.lower(), tags=("bench",))
        endpoint = f"{model.lower()}@bench"
        print(f"published {version.ref}; replaying {args.requests} single-fingerprint "
              f"requests from {threads} threads", flush=True)

        modes: Dict[str, Dict[str, object]] = {}
        for mode, note in (
            ("per_request", "one Gateway.localize call per request"),
            ("micro_batched", f"max_batch={args.max_batch}"),
        ):
            print(f"{mode:<13} ({note}) ...", flush=True)
            app = ServingApp(store, max_batch=args.max_batch)
            target = app.gateway if mode == "per_request" else app
            modes[mode] = harness.replay(harness.in_process(target, endpoint), queries, threads)
            if mode == "micro_batched":
                batch_stats = app.batcher_for(endpoint).stats.as_dict()
            app.close()
            _show(modes[mode])
        print(f"  mean batch {batch_stats['mean_batch_size']}")

        # HTTP tier: the asyncio front end (per body codec) vs SO_REUSEPORT
        # worker processes, all over the same stack.
        http_modes = run_http_benchmark(store, endpoint, queries[: args.http_requests], args)

    identical = {
        f"{mode}_vs_direct": result.pop("labels") == direct_labels[: result["requests"]]
        for mode, result in {**modes, **http_modes}.items()
    }
    speedup = (
        modes["micro_batched"]["requests_per_s"] / modes["per_request"]["requests_per_s"]  # type: ignore[operator]
    )
    print(f"micro-batched throughput {speedup:.2f}x the per-request path")
    workers_section: Optional[Dict[str, object]] = None
    if "http_workers_json" in http_modes:
        single = http_modes["http_aio_json"]
        multi = http_modes["http_workers_json"]
        workers_section = {
            "workers": args.workers,
            "speedup_vs_single_aio": round(
                multi["requests_per_s"] / single["requests_per_s"], 3  # type: ignore[operator]
            ),
            "p99_ms_single": single["latency_ms"]["p99"],  # type: ignore[index]
            "p99_ms_workers": multi["latency_ms"]["p99"],  # type: ignore[index]
        }
        print(f"{args.workers} workers {workers_section['speedup_vs_single_aio']}x one "
              f"asyncio process (p99 {workers_section['p99_ms_workers']}ms vs "
              f"{workers_section['p99_ms_single']}ms)")
    return {
        "profile": args.profile,
        "model": model,
        "building": args.building,
        "requests": args.requests,
        "client_threads": threads,
        "micro_batching": {
            "max_batch": args.max_batch,
            **batch_stats,
        },
        "modes": modes,
        "http_requests": args.http_requests,
        "http_modes": http_modes,
        "throughput_speedup": round(speedup, 3),
        "multi_worker": workers_section,
        "identical": identical,
    }


def gate(args: argparse.Namespace, report: Dict[str, object], gates: harness.Gates) -> None:
    gates.identity(report["identical"], "predictions diverged in")
    gates.at_least("min_speedup", report["throughput_speedup"], args.min_speedup,
                   "micro-batched/per-request throughput", enabled=args.min_speedup > 0)
    multi = report["multi_worker"]
    if multi is None:
        return
    cpus = os.cpu_count() or 1
    enabled = args.min_worker_speedup > 0
    # Single CPU: parallel acceptors cannot speed anything up, but they must
    # not pessimize the serving path either, so the floor there is 0.8x.
    floor = args.min_worker_speedup if cpus >= args.workers else 0.8
    gates.at_least("min_worker_speedup", multi["speedup_vs_single_aio"], floor,
                   f"{args.workers}-worker/1-process throughput on {cpus} CPUs",
                   enabled=enabled)
    if cpus >= args.workers:
        gates.at_most("worker_p99_ms", multi["p99_ms_workers"], multi["p99_ms_single"],
                      f"{args.workers}-worker vs 1-process p99 ms", enabled=enabled)


def build_parser() -> argparse.ArgumentParser:
    parser = harness.parser("serving", __doc__)
    parser.add_argument(
        "--model",
        default="CALLOC",
        help="registry name of the served model (CALLOC: the paper's framework; "
        "its attention forward pass is where micro-batching pays off)",
    )
    parser.add_argument("--building", default="Building 1")
    parser.add_argument("--profile", default="quick", choices=sorted(PROFILES))
    parser.add_argument("--requests", type=int, default=2000,
                        help="number of single-fingerprint requests to replay")
    parser.add_argument("--threads", type=int, default=32,
                        help="concurrent client threads")
    parser.add_argument("--max-batch", type=int, default=64)
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the on-disk artefact cache when training")
    parser.add_argument("--min-speedup", type=float, default=2.0,
                        help="fail unless micro-batched throughput reaches this "
                        "factor over per-request (0 disables the gate)")
    parser.add_argument("--http-requests", type=int, default=600,
                        help="requests replayed per HTTP front-end mode")
    parser.add_argument("--workers", type=int, default=2,
                        help="SO_REUSEPORT worker processes for the aggregate "
                        "mode (1 disables it)")
    parser.add_argument("--min-worker-speedup", type=float, default=2.0,
                        help="fail unless N workers reach this factor over one "
                        "asyncio process — applied only when the machine has "
                        ">= N CPUs; single-CPU boxes get a no-pessimization "
                        "floor of 0.8x instead (0 disables both gates)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    return harness.main("serving", build_parser(), measure, gate, argv)


if __name__ == "__main__":
    raise SystemExit(main())
