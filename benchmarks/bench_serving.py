#!/usr/bin/env python
"""Benchmark harness for the production serving layer (``repro.serve``).

Measures the online-phase request path end to end — store-published model,
gateway routing, per-endpoint stats — under the two serving modes:

``per_request``
    Every request is routed and scored individually
    (``ServingApp(batching=False)``): the latency-optimal baseline.
``micro_batched``
    Requests from concurrent callers queue in the endpoint's
    :class:`~repro.serve.batching.MicroBatcher` and are flushed as one
    batched ``localize`` call (``--max-batch`` / ``--max-wait-ms`` knobs):
    the throughput-optimal path.

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

Exit status is non-zero when predictions diverge anywhere or when the
micro-batched throughput falls below ``--min-speedup`` × the per-request
throughput (default 2.0; pass 0 to disable the gate).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:  # allow running without installing
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import __version__  # noqa: E402
from repro.api import PROFILES, LocalizationService  # noqa: E402
from repro.serve import ModelStore, ServiceClient  # noqa: E402
from repro.serve.aio.protocol import (  # noqa: E402
    CONTENT_JSON,
    CONTENT_MSGPACK,
    CONTENT_NDARRAY,
    msgpack_available,
)
from repro.serve.aio.server import AioServerThread  # noqa: E402
from repro.serve.aio.supervisor import ServeSupervisor  # noqa: E402
from repro.serve.gateway import percentile  # noqa: E402
from repro.serve.http import ServingApp  # noqa: E402


def _drive(app: ServingApp, endpoint: str, queries: np.ndarray, threads: int) -> Dict[str, object]:
    """Replay ``queries`` as single-fingerprint requests from ``threads`` callers."""
    latencies: List[float] = [0.0] * queries.shape[0]
    labels: List[int] = [0] * queries.shape[0]
    cursor = {"next": 0}
    lock = threading.Lock()

    def worker() -> None:
        while True:
            with lock:
                index = cursor["next"]
                if index >= queries.shape[0]:
                    return
                cursor["next"] = index + 1
            start = time.perf_counter()
            result = app.localize(endpoint, queries[index])
            latencies[index] = time.perf_counter() - start
            labels[index] = int(result.labels[0])

    pool = [threading.Thread(target=worker) for _ in range(threads)]
    wall_start = time.perf_counter()
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    wall = time.perf_counter() - wall_start
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


def _drive_http(
    base_url: str,
    endpoint: str,
    queries: np.ndarray,
    threads: int,
    content_type: str = CONTENT_JSON,
    warmup: int = 2,
) -> Dict[str, object]:
    """Replay ``queries`` over HTTP from ``threads`` keep-alive clients."""
    for _ in range(warmup):
        # Untimed: first-request model load must not skew the latency window.
        with ServiceClient(base_url, content_type=content_type) as client:
            client.localize(queries[0], model=endpoint)
    latencies: List[float] = [0.0] * queries.shape[0]
    labels: List[int] = [0] * queries.shape[0]
    cursor = {"next": 0}
    lock = threading.Lock()

    def worker() -> None:
        with ServiceClient(base_url, content_type=content_type) as client:
            while True:
                with lock:
                    index = cursor["next"]
                    if index >= queries.shape[0]:
                        return
                    cursor["next"] = index + 1
                start = time.perf_counter()
                result = client.localize(queries[index], model=endpoint)
                latencies[index] = time.perf_counter() - start
                labels[index] = int(result.labels[0])

    pool = [threading.Thread(target=worker) for _ in range(threads)]
    wall_start = time.perf_counter()
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    wall = time.perf_counter() - wall_start
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


def run_http_benchmark(
    store: ModelStore,
    endpoint: str,
    queries: np.ndarray,
    threads: int,
    max_batch: int,
    max_wait_ms: float,
    workers: int,
) -> Dict[str, object]:
    """Drive the full HTTP tier: the asyncio front end per body codec, then N workers."""
    modes: Dict[str, Dict[str, object]] = {}

    aio_bodies = [("http_aio_json", CONTENT_JSON), ("http_aio_binary", CONTENT_NDARRAY)]
    if msgpack_available():
        aio_bodies.append(("http_aio_msgpack", CONTENT_MSGPACK))
    with AioServerThread(store, max_batch=max_batch, max_wait_ms=max_wait_ms) as aio:
        for mode, content_type in aio_bodies:
            print(f"{mode} (asyncio front end, {content_type}) ...", flush=True)
            modes[mode] = _drive_http(
                aio.base_url, endpoint, queries, threads, content_type=content_type
            )
            print(f"  {modes[mode]['wall_s']}s "
                  f"({modes[mode]['requests_per_s']} req/s)")

    report: Dict[str, object] = {"modes": modes}
    if workers > 1:
        print(f"http_workers_json ({workers} SO_REUSEPORT processes) ...", flush=True)
        with ServeSupervisor(
            str(store.root),
            port=0,
            workers=workers,
            max_batch=max_batch,
            max_wait_ms=max_wait_ms,
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
            result = _drive_http(base_url, endpoint, queries, threads, warmup=0)
        modes["http_workers_json"] = result
        print(f"  {result['wall_s']}s ({result['requests_per_s']} req/s)")
    return report


def run_benchmark(
    model: str = "CALLOC",
    building: str = "Building 1",
    profile: str = "quick",
    requests: int = 2000,
    threads: int = 32,
    max_batch: int = 64,
    max_wait_ms: float = 2.0,
    cache: bool = True,
    output: Optional[Path] = None,
    http_requests: int = 600,
    workers: int = 2,
) -> Dict[str, object]:
    """Run both serving modes plus the HTTP identity check; return the report."""
    if profile not in PROFILES:
        raise SystemExit(f"unknown profile '{profile}'; expected one of {sorted(PROFILES)}")
    print(f"training {model} on {building} ({profile} profile) ...", flush=True)
    service = LocalizationService.trained_on(
        building, model=model, profile=profile, cache=cache
    )
    config = PROFILES[profile]()
    from repro.eval.engine import ArtifactCache, simulate_campaign

    campaign, _ = simulate_campaign(building, config, ArtifactCache.coerce(cache))
    test = campaign.test_for(config.devices[0])
    queries = np.tile(
        test.features, (requests // test.features.shape[0] + 1, 1)
    )[:requests]
    direct_labels = [int(v) for v in service.localize(queries).labels]

    with tempfile.TemporaryDirectory(prefix="repro-bench-store-") as store_dir:
        store = ModelStore(store_dir)
        version = store.publish(service, model.lower(), tags=("bench",))
        endpoint = f"{model.lower()}@bench"
        print(f"published {version.ref}; replaying {requests} single-fingerprint "
              f"requests from {threads} threads", flush=True)

        modes: Dict[str, Dict[str, object]] = {}
        print("per_request   (batching off) ...", flush=True)
        app = ServingApp(store, batching=False)
        modes["per_request"] = _drive(app, endpoint, queries, threads)
        app.close()
        print(f"  {modes['per_request']['wall_s']}s "
              f"({modes['per_request']['requests_per_s']} req/s)")

        print(f"micro_batched (max_batch={max_batch}, max_wait={max_wait_ms}ms) ...",
              flush=True)
        app = ServingApp(
            store, batching=True, max_batch=max_batch, max_wait_ms=max_wait_ms
        )
        modes["micro_batched"] = _drive(app, endpoint, queries, threads)
        batch_stats = app.batcher_for(endpoint).stats.as_dict()
        app.close()
        print(f"  {modes['micro_batched']['wall_s']}s "
              f"({modes['micro_batched']['requests_per_s']} req/s, "
              f"mean batch {batch_stats['mean_batch_size']})")

        # HTTP tier: the asyncio front end (per body codec) vs SO_REUSEPORT
        # worker processes, all over the same stack.
        http = run_http_benchmark(
            store,
            endpoint,
            queries[:http_requests],
            threads,
            max_batch=max_batch,
            max_wait_ms=max_wait_ms,
            workers=workers,
        )

    identical = {
        "per_request_vs_direct": modes["per_request"].pop("labels") == direct_labels,
        "micro_batched_vs_direct": modes["micro_batched"].pop("labels") == direct_labels,
    }
    http_expected = direct_labels[:http_requests]
    http_modes: Dict[str, Dict[str, object]] = http["modes"]  # type: ignore[assignment]
    for mode, mode_report in http_modes.items():
        identical[f"{mode}_vs_direct"] = mode_report.pop("labels") == http_expected
    speedup = (
        modes["micro_batched"]["requests_per_s"] / modes["per_request"]["requests_per_s"]  # type: ignore[operator]
    )
    workers_section: Optional[Dict[str, object]] = None
    if "http_workers_json" in http_modes:
        single = http_modes["http_aio_json"]
        multi = http_modes["http_workers_json"]
        workers_section = {
            "workers": workers,
            "speedup_vs_single_aio": round(
                multi["requests_per_s"] / single["requests_per_s"], 3  # type: ignore[operator]
            ),
            "p99_ms_single": single["latency_ms"]["p99"],  # type: ignore[index]
            "p99_ms_workers": multi["latency_ms"]["p99"],  # type: ignore[index]
        }
    report: Dict[str, object] = {
        "benchmark": "serving",
        "version": __version__,
        "created_unix": time.time(),
        "machine": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
        },
        "profile": profile,
        "model": model,
        "building": building,
        "requests": requests,
        "client_threads": threads,
        "micro_batching": {
            "max_batch": max_batch,
            "max_wait_ms": max_wait_ms,
            **batch_stats,
        },
        "modes": modes,
        "http_requests": http_requests,
        "http_modes": http_modes,
        "throughput_speedup": round(speedup, 3),
        "multi_worker": workers_section,
        "identical": identical,
    }
    if output is not None:
        output.parent.mkdir(parents=True, exist_ok=True)
        output.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {output}")
    print(f"micro-batched throughput {speedup:.2f}x the per-request path")
    if workers_section is not None:
        print(f"{workers} workers {workers_section['speedup_vs_single_aio']}x one "
              f"asyncio process (p99 {workers_section['p99_ms_workers']}ms vs "
              f"{workers_section['p99_ms_single']}ms)")
    return report


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
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
    parser.add_argument("--max-wait-ms", type=float, default=2.0)
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the on-disk artefact cache when training")
    parser.add_argument("--output", type=Path, default=REPO_ROOT / "BENCH_serving.json")
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
    args = parser.parse_args(argv)

    report = run_benchmark(
        model=args.model,
        building=args.building,
        profile=args.profile,
        requests=args.requests,
        threads=args.threads,
        max_batch=args.max_batch,
        max_wait_ms=args.max_wait_ms,
        cache=not args.no_cache,
        output=args.output,
        http_requests=args.http_requests,
        workers=args.workers,
    )
    if not all(report["identical"].values()):
        diverged = [name for name, same in report["identical"].items() if not same]
        print(f"FAIL: predictions diverged in: {diverged}", file=sys.stderr)
        return 1
    if args.min_speedup > 0 and report["throughput_speedup"] < args.min_speedup:
        print(
            f"FAIL: micro-batched speedup {report['throughput_speedup']:.2f}x below "
            f"required {args.min_speedup:.2f}x",
            file=sys.stderr,
        )
        return 1
    multi = report.get("multi_worker")
    if multi is not None and args.min_worker_speedup > 0:
        cpus = os.cpu_count() or 1
        speedup = multi["speedup_vs_single_aio"]
        if cpus >= args.workers:
            if speedup < args.min_worker_speedup:
                print(
                    f"FAIL: {args.workers} workers only {speedup:.2f}x one process "
                    f"on a {cpus}-CPU machine, required "
                    f"{args.min_worker_speedup:.2f}x",
                    file=sys.stderr,
                )
                return 1
            if multi["p99_ms_workers"] > multi["p99_ms_single"]:
                print(
                    f"FAIL: {args.workers}-worker p99 {multi['p99_ms_workers']}ms "
                    f"above single-process p99 {multi['p99_ms_single']}ms",
                    file=sys.stderr,
                )
                return 1
        elif speedup < 0.8:
            # Single CPU: parallel acceptors cannot speed anything up, but
            # they must not pessimize the serving path either.
            print(
                f"FAIL: {args.workers} workers pessimize a {cpus}-CPU machine "
                f"to {speedup:.2f}x of one process (floor 0.8x)",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
