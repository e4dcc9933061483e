"""The four workloads: run the program as users do, measure, check outputs.

Each workload returns an :class:`Outcome`: the end-to-end metrics it
measures (always from untraced runs, named as in :data:`bench.metrics.MEASURED`),
per-layer metrics (from one traced rerun, when asked), correctness checks,
and the operations attempted and failed.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import math
import os
import re
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import loadgen, report
from .child import canonical_sha
from .env import (
    RunDir,
    child_env,
    reap_child,
    run_child,
    spawn_child,
    stderr_path,
    vm_hwm_mb,
)
from .loadgen import OpenLoopClient, PhaseResult, http_request, nearest_rank, tail_percentile
from .spans import load

__all__ = ["Context", "Outcome", "WORKLOADS", "SERVING_MIXES"]

PYTHON = sys.executable
IMPORT_PROBE = (
    "import time; start = time.perf_counter(); import repro.reproduce; "
    "print(time.perf_counter() - start)"
)


@dataclass
class Context:
    seed: int
    seconds: float
    trace: bool
    run: RunDir


@dataclass
class Outcome:
    measured: Dict[str, float]
    checks: Dict[str, bool]
    attempted: int
    failed: int
    details: dict = field(default_factory=dict)
    layers: Optional[Dict[str, float]] = None


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


# ----------------------------------------------------------------------
# paper_quick: `repro artefact ... --profile quick`, cold then warm
# ----------------------------------------------------------------------
SETUP_PROBES = 7
WARM_PASSES = 3


def paper_quick(ctx: Context) -> Outcome:
    from repro.reproduce import ARTEFACTS

    names = sorted(ARTEFACTS)
    order = [names[i] for i in _rng(ctx.seed).permutation(len(names))]
    cache = ctx.run.fresh("cache")
    env = child_env(cache)

    def argv(cache_dir: Path) -> List[str]:
        return ["artefact", *order, "--profile", "quick", "--cache-dir", str(cache_dir)]

    setups = []
    for _ in range(SETUP_PROBES):
        probe = run_child([PYTHON, "-c", IMPORT_PROBE], env, ctx.run.fresh("probe") / "out")
        setups.append(float(probe.stdout.split()[-1]) if probe.returncode == 0 else float("nan"))
    passes = [
        run_child([PYTHON, "-m", "repro", *argv(cache)], env, ctx.run.fresh("pass") / "out")
        for _ in range(1 + WARM_PASSES)
    ]
    cold, warm = passes[0], passes[1:]
    failed = sum(1 for p in passes if p.returncode != 0)
    digests = [hashlib.sha256(p.stdout).hexdigest() for p in passes]
    checks = {
        "passes_exit_0": failed == 0,
        "import_probes_ok": all(s == s for s in setups),
        "cold_warm_renderings_identical": len(set(digests)) == 1,
    }
    measured = {
        "setup_s": statistics.median(setups),
        "cold_s": cold.wall_s,
        "warm_s": statistics.median(p.wall_s for p in warm),
        "error_rate": failed / len(passes),
        "peak_rss_mb": max(p.peak_rss_mb for p in passes),
    }
    details = {
        "artefact_order": order,
        "warm_s": [p.wall_s for p in warm],
        "setup_s": setups,
        "rendering_sha256": digests[0],
    }
    outcome = Outcome(measured, checks, attempted=len(passes), failed=failed, details=details)
    if ctx.trace:
        traced_cache = ctx.run.fresh("traced-cache")
        spans_path = ctx.run.path / "paper_quick.spans.jsonl"
        start_unix = time.time()
        traced = run_child(
            [PYTHON, "-m", "bench.child", "main", str(spans_path), "--", *argv(traced_cache)],
            child_env(traced_cache),
            ctx.run.fresh("traced") / "out",
        )
        checks["traced_exit_0"] = traced.returncode == 0
        traced_sha = hashlib.sha256(traced.stdout).hexdigest()
        checks["traced_rendering_identical"] = traced_sha == digests[0]
        details["traced_rendering_sha256"] = traced_sha
        spans, counters = load([spans_path]) if spans_path.exists() else ([], {})
        outcome.layers = report.layer_metrics(
            spans,
            counters,
            windows=[(start_unix, start_unix + traced.wall_s)],
            extras={"obs.overhead_ratio": traced.wall_s / cold.wall_s},
        )
    return outcome


# ----------------------------------------------------------------------
# serving: `repro serve --aio` under open-loop Poisson load
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ServingMix:
    content_type: str
    rows: int
    low_rps: float
    high_rps: float


#: ``high`` is 50-60% of the measured capacity; ``low`` is well below the
#: knee so that its p50 is service time, not queueing, which amplifies the
#: machine's slow stretches (see bench/README.md).
SERVING_MIXES = {
    "serve_single_json": ServingMix("application/json", 1, 200.0, 1000.0),
    "serve_batch_binary": ServingMix("application/x-repro-ndarray", 32, 50.0, 130.0),
}
BUILDING = "Building 1"
REF = "calloc@bench"
#: Share of ``--seconds`` spent in each fixed-rate phase and ladder rung.
#: The p50s come from the fixed phases, so they get the time: their
#: medians drift by about 10% from one second to the next on a shared VM.
LOW_SHARE, HIGH_SHARE, RUNG_SHARE = 0.5, 0.5, 0.075
#: The fixed phases alternate in this many blocks each, so that both rates
#: see the same stretches of the machine's speed.
BLOCKS = 4
LADDER_STEP, MAX_RUNGS = 1.1, 8
#: A ladder rung passes with p95 at or under this, among other conditions.
#: p95, not p99: on a shared 2-CPU VM, 20-50 ms machine stalls put p99 over
#: 25 ms at a fifth of capacity in one rung out of three, so a p99 limit
#: measured stalls rather than the knee where queueing sets in.
LIMIT_PCT, LIMIT_S = 95.0, 0.025
POOL_SIZE = 256
SERVER_SPAWNS = 5
TIMEOUT_S = 5.0


def _connections() -> int:
    return max(1, min(2, os.cpu_count() or 1))


class _Server:
    """One ``repro serve --aio`` process, timed from spawn to first answer."""

    PORT = re.compile(rb"listening on http://[^:\s]+:(\d+)")

    def __init__(self, cmd: List[str], env: Dict[str, str], log: Path, first: bytes,
                 content_type: str) -> None:
        start = time.perf_counter()
        self.proc = spawn_child(cmd, env, log)
        try:
            self.port = self._wait_port(log, start + 120.0)
            self._request("GET", "/healthz", b"", "application/json", start + 120.0)
            self._request("POST", "/v1/localize", first, content_type, start + 120.0)
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise
        self.setup_s = time.perf_counter() - start

    def _wait_port(self, log: Path, deadline: float) -> int:
        while time.perf_counter() < deadline:
            match = self.PORT.search(log.read_bytes())
            if match:
                return int(match.group(1))
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited: {stderr_path(log).read_text()[-2000:]}")
            time.sleep(0.002)
        raise TimeoutError("server did not announce its port")

    def _request(self, method: str, path: str, body: bytes, content_type: str,
                 deadline: float) -> bytes:
        while True:
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
            try:
                conn.request(method, path, body=body, headers={"Content-Type": content_type})
                response = conn.getresponse()
                data = response.read()
                if response.status != 200:
                    raise RuntimeError(f"{method} {path} -> {response.status}: {data[:200]!r}")
                return data
            except ConnectionError:
                if time.perf_counter() > deadline:
                    raise
                time.sleep(0.002)
            finally:
                conn.close()

    def stop(self) -> float:
        """SIGINT (the server's clean shutdown), then its peak RSS in MB."""
        hwm = vm_hwm_mb(self.proc.pid)
        # os.kill, not Popen.send_signal: that polls, and a reaped child
        # would leave reap_child nothing to wait for.
        os.kill(self.proc.pid, signal.SIGINT)
        peak = reap_child(self.proc, 30.0)[2]
        return hwm if hwm is not None else peak


def _serving_pool(seed: int, mix: ServingMix, cache: Path):
    """Seeded request bodies drawn from the building's test fingerprints."""
    from repro.api import PROFILES
    from repro.eval.engine import ArtifactCache, simulate_campaign
    from repro.serve.aio.protocol import encode_body

    campaign, _ = simulate_campaign(BUILDING, PROFILES["quick"](), ArtifactCache(cache))
    features = campaign.test_all_devices().features
    rng = _rng(seed, 99)
    rows = [features[rng.integers(len(features), size=mix.rows)] for _ in range(POOL_SIZE)]
    payloads = []
    for batch in rows:
        fingerprints = batch if mix.rows > 1 else batch[0]
        if mix.content_type == "application/json":
            fingerprints = fingerprints.tolist()
        payloads.append(encode_body({"model": REF, "fingerprints": fingerprints}, mix.content_type))
    return rows, payloads


def _limited(phase: PhaseResult) -> float:
    """The latency the rung limit applies to."""
    return nearest_rank(phase.ok_latencies, LIMIT_PCT) if phase.ok_latencies else float("inf")


def _steady(phase: PhaseResult) -> bool:
    """Every condition of a passing rung except the latency limit."""
    return (
        phase.failed == 0
        and phase.send_ratio() >= 0.99
        and not phase.backlog_growing()
    )


def _rung_ok(phase: PhaseResult) -> bool:
    return _steady(phase) and _limited(phase) <= LIMIT_S


async def _drive(port: int, payloads: Sequence[bytes], mix: ServingMix, ctx: Context,
                 fixed: Sequence[tuple], ladder: bool) -> List[PhaseResult]:
    """Run the ``fixed`` ``(name, rate, seconds)`` phases, then the rate ladder."""
    pool = [http_request("/v1/localize", body, mix.content_type) for body in payloads]
    client = OpenLoopClient("127.0.0.1", port, _connections(), TIMEOUT_S)
    phases = []
    try:
        for index, (name, rate, seconds) in enumerate(fixed):
            phases.append(await client.run_phase(name, pool, rate, seconds, _rng(ctx.seed, index)))
        rate = mix.high_rps
        for rung in range(1, MAX_RUNGS + 1 if ladder else 1):
            rate *= LADDER_STEP
            # A failing rung gets one more try: one machine stall must not
            # end the ladder.
            for attempt in range(2):
                phase = await client.run_phase(
                    f"rung{rung}" + ".retry" * attempt, pool, rate, RUNG_SHARE * ctx.seconds,
                    _rng(ctx.seed, 10 + rung, attempt),
                )
                phases.append(phase)
                if _rung_ok(phase):
                    break
            else:
                break
    finally:
        await client.close()
    return phases


def _labels_match(phases: Sequence[PhaseResult], rows, store: Path, content_type: str) -> bool:
    """Every answered request's labels equal a direct ``localize`` of its rows."""
    from repro.serve import ModelStore
    from repro.serve.aio.protocol import decode_body

    service = ModelStore(store).resolve(REF)
    expected = [service.localize(batch).labels.tolist() for batch in rows]
    for phase in phases:
        for pick, status, body in zip(phase.picks, phase.statuses, phase.bodies):
            if status != 200 or body is None:
                continue
            labels = decode_body(body, content_type)["labels"]
            if list(np.asarray(labels).tolist()) != expected[pick]:
                return False
    return True


def _max_rate(ladder: Sequence[PhaseResult]) -> float:
    """Highest rate meeting every rung condition, between ladder rungs.

    ``ladder`` is the ``high`` phase and every rung attempt.  The highest
    passing rate bounds the answer from below; when every attempt at the
    next rate failed on the latency limit alone, the rate where latency
    crosses the limit is interpolated between the two (log latency against
    log rate), so the result does not jump by whole 10% rungs.
    """
    passing = [phase for phase in ladder if _rung_ok(phase)]
    if not passing:
        return 0.0
    best = max(passing, key=lambda phase: phase.rate)
    above = [phase for phase in ladder if phase.rate > best.rate]
    if not above:
        return best.rate
    next_rate = min(phase.rate for phase in above)
    attempts = [phase for phase in above if phase.rate == next_rate]
    if not all(_steady(phase) for phase in attempts):
        return best.rate
    low = math.log(_limited(best))
    high = math.log(min(_limited(phase) for phase in attempts))
    share = (math.log(LIMIT_S) - low) / (high - low) if high > low else 0.0
    return best.rate * (next_rate / best.rate) ** min(1.0, max(0.0, share))


def serving(ctx: Context, workload: str) -> Outcome:
    from repro.reproduce import build_parser

    mix = SERVING_MIXES[workload]
    store, cache = ctx.run.fresh("store"), ctx.run.fresh("cache")
    env = child_env(cache)
    publish = run_child(
        [PYTHON, "-m", "repro", "store", "--store", str(store), "publish",
         "--building", BUILDING, "--model", "CALLOC", "--tag", REF.split("@")[1]],
        env, ctx.run.fresh("publish") / "out",
    )
    if publish.returncode != 0:
        raise RuntimeError(f"publish failed: {publish.stderr[-2000:]!r}")
    rows, payloads = _serving_pool(ctx.seed, mix, cache)
    serve_argv = ["serve", "--aio", "--store", str(store), "--port", "0"]

    setups = []
    for spawn in range(SERVER_SPAWNS):
        server = _Server([PYTHON, "-u", "-m", "repro", *serve_argv], env,
                         ctx.run.fresh("server") / "out", payloads[0], mix.content_type)
        setups.append(server.setup_s)
        if spawn < SERVER_SPAWNS - 1:
            server.stop()
    fixed = [
        (name, rate, share * ctx.seconds / BLOCKS)
        for _ in range(BLOCKS)
        for name, rate, share in (("low", mix.low_rps, LOW_SHARE),
                                  ("high", mix.high_rps, HIGH_SHARE))
    ]
    try:
        phases = loadgen.run(_drive(server.port, payloads, mix, ctx, fixed, ladder=True))
    finally:
        rss_mb = server.stop()
    low = PhaseResult.merged("low", phases[0:len(fixed):2])
    high = PhaseResult.merged("high", phases[1:len(fixed):2])
    ladder = [high, *phases[len(fixed):]]
    checks = {
        "labels_match_direct_localize": _labels_match(phases, rows, store, mix.content_type),
        "fixed_rate_phases_answered": low.failed == 0 and high.failed == 0,
    }
    low_summary, high_summary = low.summary(), high.summary()
    attempted, failed = low.scheduled + high.scheduled, low.failed + high.failed
    measured = {
        "setup_s": statistics.median(setups),
        "lat_p50_ms.low": low_summary["p50_ms"],
        "lat_p99_ms.low": low_summary["tail_ms"],
        "lat_p50_ms.high": high_summary["p50_ms"],
        "lat_p99_ms.high": high_summary["tail_ms"],
        "max_rate_rps": _max_rate(ladder),
        "error_rate": failed / attempted,
        "peak_rss_mb": rss_mb,
    }
    details = {"phases": [phase.summary() for phase in (low, *ladder)],
               "setup_s": setups, "connections": _connections()}
    outcome = Outcome(measured, checks, attempted=attempted, failed=failed, details=details)
    if ctx.trace:
        # Spans at every layer seam cost several times the program's own, so
        # the traced rerun offers the `low` rate only (for as long as both
        # fixed phases): per-request layer costs are read off a server that
        # is not saturated by its own tracing.
        spans_path = ctx.run.path / f"{workload}.spans.jsonl"
        traced_server = _Server(
            [PYTHON, "-u", "-m", "bench.child", "main", str(spans_path), "--", *serve_argv],
            env, ctx.run.fresh("traced-server") / "out", payloads[0], mix.content_type,
        )
        try:
            traced = loadgen.run(_drive(
                traced_server.port, payloads, mix, ctx,
                [("low", mix.low_rps, (LOW_SHARE + HIGH_SHARE) * ctx.seconds)], ladder=False,
            ))
        finally:
            traced_server.stop()
        checks["traced_labels_match"] = _labels_match(traced, rows, store, mix.content_type)
        checks["traced_fixed_rate_phases_answered"] = all(p.failed == 0 for p in traced)
        details["traced_phases"] = [phase.summary() for phase in traced]
        spans, counters = load([spans_path]) if spans_path.exists() else ([], {})
        lo, hi = traced[0].start_unix, traced[-1].end_unix
        spans = [span for span in spans if lo <= span["start"] <= hi]
        lateness = [late for p in (low, high) for late in p.lateness if late is not None]
        outcome.layers = report.layer_metrics(
            spans,
            counters,
            client_latency_s=sum(sum(p.ok_latencies) for p in traced),
            max_batch=build_parser().parse_args(["serve"]).max_batch,
            extras={
                "loadgen.sent": low.sent + high.sent,
                "loadgen.ok": len(low.ok_latencies) + len(high.ok_latencies),
                "loadgen.late_s": sum(
                    late for p in traced for late, lat, status
                    in zip(p.lateness, p.latencies, p.statuses)
                    if lat is not None and status == 200
                ),
                "loadgen.late_tail_ms": 1000.0 * tail_percentile(lateness)[1],
                "obs.overhead_ratio": traced[0].summary()["p50_ms"] / low_summary["p50_ms"],
            },
        )
    return outcome


# ----------------------------------------------------------------------
# queue_sweep: RunLedger.submit + repro.queue.work
# ----------------------------------------------------------------------
QUEUE_MODELS = ("KNN", "DNN", "AdvLoc", "WiDeep")
#: Drains by one in-process worker; ``drain_s`` is their median.
DRAINS = 4
#: Plus one drain by this many spawned worker processes per run
#: (``drain_s.workers2``).  Each worker's BLAS pool spins on every core, and
#: on a 2-CPU machine such a drain took anywhere from 3.9 s to 22 s: one of
#: them is what a run can afford, and ``compare`` reads it as unresolved
#: while that oversubscription lasts.
SPAWNED_WORKERS = 2


def _drain(ctx: Context, spec: Path, cache: Path, run_id: str, workers: int,
           spans: Optional[Path] = None) -> dict:
    cmd = [PYTHON, "-m", "bench.child", "drain", str(spec), str(cache), run_id, str(workers)]
    spawned_unix = time.time()
    result = run_child(cmd + ([str(spans)] if spans else []), child_env(cache),
                       ctx.run.fresh("drain") / "out")
    lines = result.stdout.decode("utf-8", "replace").strip().splitlines()
    if result.returncode != 0 or not lines:
        log = result.stderr.decode("utf-8", "replace").splitlines()
        return {"returncode": result.returncode, "log": log[-20:]}
    doc = json.loads(lines[-1])
    doc.update(returncode=0, spawn_s=doc["ready_unix"] - spawned_unix,
               peak_rss_mb=result.peak_rss_mb)
    return doc


def queue_sweep(ctx: Context) -> Outcome:
    from repro.api import ExperimentSpec, run_experiment
    from repro.registry import SCENARIOS

    rng = _rng(ctx.seed)
    families = sorted(entry.name for entry in SCENARIOS.entries(None))
    spec = ExperimentSpec(
        models=tuple(QUEUE_MODELS[i] for i in rng.permutation(len(QUEUE_MODELS))),
        profile="quick",
        robustness=tuple(families[i] for i in rng.permutation(len(families))),
        name="bench-queue-sweep",
    )
    spec_path = spec.save(ctx.run.path / "spec.json")
    single = [
        _drain(ctx, spec_path, ctx.run.fresh("cache"), f"drain-{index}", 1)
        for index in range(DRAINS)
    ]
    spawned = _drain(ctx, spec_path, ctx.run.fresh("cache"), "drain-spawned", SPAWNED_WORKERS)
    drains = single + [spawned]
    ok = [d for d in drains if d["returncode"] == 0]
    plan_units = sum(spec.resolve_plan().stage_counts().values())
    units = plan_units * len(drains)
    failed = sum(d["units"] - d["done"] for d in ok) + plan_units * (len(drains) - len(ok))
    reference = canonical_sha(run_experiment(spec).to_records())
    shas = {d.get("records_sha256") for d in drains}
    checks = {
        "drains_exit_0": len(ok) == len(drains),
        "all_units_done": failed == 0,
        "drain_records_identical_to_serial": shas == {reference},
    }
    if len(ok) != len(drains):
        return Outcome({}, checks, attempted=units, failed=failed, details={"drains": drains})
    # Set-up is everything before the drain: interpreter start, imports and
    # submit.  Submit alone (25 ms) reads 25 or 45 ms by which speed the
    # shared CPU happens to run at, and its median flipped between the two.
    setups = [d["spawn_s"] + d["submit_s"] for d in drains]
    measured = {
        "setup_s": statistics.median(setups),
        "drain_s": statistics.median(d["drain_s"] for d in single),
        "drain_s.workers2": spawned["drain_s"],
        "error_rate": failed / units,
        # The in-process drains: their process is the worker.
        "peak_rss_mb": max(d["peak_rss_mb"] for d in single),
    }
    details = {
        "spec": spec.to_dict(),
        "drain_s": [d["drain_s"] for d in single],
        "setup_s": setups,
        "submit_s": [d["submit_s"] for d in drains],
        "records_sha256": reference,
    }
    outcome = Outcome(measured, checks, attempted=units, failed=failed, details=details)
    if ctx.trace:
        # One drain of each kind, each in a fresh cache.
        traced = [
            _drain(ctx, spec_path, ctx.run.fresh("traced-cache"), f"traced-{workers}", workers,
                   ctx.run.path / f"queue_sweep.workers{workers}.spans.jsonl")
            for workers in (1, SPAWNED_WORKERS)
        ]
        checks["traced_drains_identical"] = all(
            d.get("records_sha256") == reference for d in traced
        )
        spans, counters = load(sorted(ctx.run.path.glob("queue_sweep.workers*.spans.jsonl*")))
        outcome.layers = report.layer_metrics(
            spans,
            counters,
            windows=[tuple(d["drain_window"]) for d in traced if "drain_window" in d],
            extras={
                "queue.spawn_s": statistics.median(d["spawn_s"] for d in drains),
                "obs.overhead_ratio": traced[0].get("drain_s", 0.0) / measured["drain_s"],
            },
        )
    return outcome


WORKLOADS = {
    "paper_quick": paper_quick,
    "serve_single_json": lambda ctx: serving(ctx, "serve_single_json"),
    "serve_batch_binary": lambda ctx: serving(ctx, "serve_batch_binary"),
    "queue_sweep": queue_sweep,
}
