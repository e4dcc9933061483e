"""Leasing queue workers: claim ready units, execute, heartbeat, retry.

A :class:`QueueWorker` is one loop over a :class:`~repro.queue.ledger.RunLedger`:

1. scan the manifest in canonical order for a *ready* unit — not terminal,
   every dependency ``done``, retry backoff elapsed, no live lease (expired
   leases are broken on sight, consuming the dead worker's attempt);
2. claim it with an atomic lease file, then start a heartbeat thread that
   renews the lease every ``ttl / 3`` seconds so long-running units survive
   any fixed TTL;
3. execute it through :func:`repro.eval.engine.execute_unit`, the executor
   serial runs use too, with the worker's own
   :class:`~repro.eval.engine.UnitMemo` — artefacts land in the shared
   :class:`~repro.eval.engine.ArtifactCache`, the outcome document lands in
   the ledger's ``results/`` directory, and the unit is marked ``done``;
4. on exception, book a failed attempt (exponential backoff, parked as
   ``failed`` after ``max_attempts``); dependents of a failed unit are
   marked ``skipped`` so the run still drains instead of deadlocking.

Run any number of these loops — threads, processes, or hosts sharing the
cache directory — via :func:`work`.  Because every unit is content-addressed
and every write atomic, duplicate execution after a lease race is wasted
work, never wrong results.
"""

from __future__ import annotations

import os
import socket
import threading
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional

from ..eval.engine import ArtifactCache, UnitMemo, execute_unit
from ..obs import events, trace
from ..obs.metrics import REGISTRY
from ..spawn import spawn
from .ledger import (
    LEASE_BREAK_GRACE_S,
    STATE_DONE,
    STATE_FAILED,
    STATE_PENDING,
    STATE_SKIPPED,
    RunLedger,
    UnitEntry,
    UnitState,
)

__all__ = ["WorkerOptions", "QueueWorker", "work", "default_worker_id"]

#: A patchable unit executor: ``(unit, config, cache, memo) -> outcome
#: document``, where ``memo`` is the worker's :class:`UnitMemo`.
UnitExecutor = Callable[..., Dict[str, Any]]

#: While idle, re-advertise liveness this often.  Idle polls can be fast
#: (20 ms in benchmarks); writing a worker record on every poll would turn
#: waiting on a dependency into a stream of ledger writes.  One record on
#: entering idle plus a periodic re-beat keeps ``queue status`` honest
#: (reporting treats silence beyond 60 s as a dead worker) at negligible cost.
_IDLE_REBEAT_S = 15.0

#: Minimum spacing of ``running`` worker records.  On grids of sub-second
#: units a record per claim would rival the real ledger writes; long units
#: still update every second, which is all ``queue watch`` can show anyway.
_RUNNING_BEAT_S = 1.0


def default_worker_id() -> str:
    """``host:pid`` — unique per worker process across machines."""
    return f"{socket.gethostname()}:{os.getpid()}"


def _lease_counter(action: str) -> None:
    """Process-global lease transition counter (acquired/released/expired)."""
    REGISTRY.counter(
        "repro_queue_leases_total", "Queue lease transitions", ("action",)
    ).labels(action=action).inc()


@dataclass(frozen=True)
class WorkerOptions:
    """Tunables of one worker loop (all exposed as CLI flags)."""

    ttl_s: float = 30.0
    """Lease lifetime; a worker silent this long is presumed dead."""

    poll_s: float = 0.2
    """Sleep between scans when nothing is ready yet."""

    max_attempts: int = 3
    """Attempts (incl. broken leases) before a unit is parked as failed."""

    backoff_s: float = 0.5
    """Base retry delay; doubles per attempt up to :attr:`backoff_cap_s`."""

    backoff_cap_s: float = 30.0

    max_units: Optional[int] = None
    """Stop after executing this many units (test/bench hook)."""

    def as_dict(self) -> Dict[str, Any]:
        return {
            "ttl_s": self.ttl_s,
            "poll_s": self.poll_s,
            "max_attempts": self.max_attempts,
            "backoff_s": self.backoff_s,
            "backoff_cap_s": self.backoff_cap_s,
            "max_units": self.max_units,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WorkerOptions":
        return cls(**dict(data))


class _Heartbeat:
    """Background lease renewal for one claimed unit."""

    def __init__(self, ledger: RunLedger, uid: str, worker: str, ttl_s: float):
        self._ledger = ledger
        self._uid = uid
        self._worker = worker
        self._ttl_s = ttl_s
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._stop.set()
        self._thread.join(timeout=self._ttl_s)

    def _run(self) -> None:
        interval = max(self._ttl_s / 3.0, 0.05)
        while not self._stop.wait(interval):
            if not self._ledger.renew_lease(self._uid, self._worker, self._ttl_s):
                return  # lease lost (broken as expired) — stop renewing
            REGISTRY.counter(
                "repro_queue_heartbeats_total", "Successful lease renewals"
            ).inc()


class QueueWorker:
    """One worker loop over a run ledger.  See the module docstring."""

    def __init__(
        self,
        ledger: RunLedger,
        worker_id: Optional[str] = None,
        options: Optional[WorkerOptions] = None,
        execute: Optional[UnitExecutor] = None,
    ) -> None:
        self.ledger = ledger
        self.worker_id = worker_id or default_worker_id()
        self.options = options or WorkerOptions()
        self._execute = execute or execute_unit
        self._memo = UnitMemo()
        self._plan_units = ledger.plan_units_by_id()
        self._entries = ledger.units
        self.executed = 0
        # Terminal states never revert, so remember them and stop re-reading
        # their state files on every scheduling scan.
        self._terminal: Dict[str, UnitState] = {}
        self._last_group: Optional[str] = None

    # -- scheduling -----------------------------------------------------
    def _deps_status(
        self, entry: UnitEntry, states: Mapping[str, UnitState]
    ) -> str:
        """``done`` / ``pending`` / ``blocked`` over all dependencies."""
        status = STATE_DONE
        for dep in entry.deps:
            dep_state = states[dep].state
            if dep_state in (STATE_FAILED, STATE_SKIPPED):
                return "blocked"
            if dep_state != STATE_DONE:
                status = STATE_PENDING
        return status

    def _read_states(self) -> Dict[str, UnitState]:
        """All unit states, serving known-terminal ones from the local memo.

        One directory listing identifies units still in pristine ``pending``
        (no state file yet), so a scan costs reads only for units that are
        both transitioned and not yet known-terminal.
        """
        transitioned = self.ledger.transitioned_units()
        states: Dict[str, UnitState] = {}
        for entry in self._entries:
            state = self._terminal.get(entry.id)
            if state is None:
                if entry.id in transitioned:
                    state = self.ledger.unit_state(entry.id)
                    if state.terminal:
                        self._terminal[entry.id] = state
                else:
                    state = UnitState()
            states[entry.id] = state
        return states

    def _claim_next(
        self, states: Dict[str, UnitState]
    ) -> Optional[UnitEntry]:
        """One scheduling pass: lease a ready unit, or ``None`` this round.

        Ready units of the affinity group this worker last executed are
        claimed first: group units share warm per-worker state (the fitted
        surrogate above all), so affinity turns N workers splitting a model's
        eval grid from N surrogate fits into one.  Ties fall back to manifest
        order, so affinity never starves progress.

        The pass also performs the janitorial duties of scanning: breaking
        expired leases and skipping dependents of failed units — any worker
        that scans does both, so the run drains even if the original executor
        of a unit died.
        """
        now = time.time()
        ready: List[UnitEntry] = []
        for entry in self._entries:
            state = states[entry.id]
            if state.terminal:
                continue
            deps = self._deps_status(entry, states)
            if deps == "blocked":
                self.ledger.mark_skipped(
                    entry.id, "dependency failed or skipped"
                )
                states[entry.id] = self.ledger.unit_state(entry.id)
                continue
            if deps != STATE_DONE or now < state.not_before_unix:
                continue
            ready.append(entry)
        ready.sort(key=lambda entry: (entry.group != self._last_group, entry.index))
        for entry in ready:
            lease = self.ledger.read_lease(entry.id)
            if lease is not None:
                # Break only past the grace margin: expiry stamps carry the
                # holder's clock, and judging them with ours at the exact
                # boundary would kill healthy leases under clock skew.
                if lease.expired(now, grace_s=LEASE_BREAK_GRACE_S):
                    self.ledger.record_expired_attempt(
                        entry.id,
                        self.worker_id,
                        self.options.max_attempts,
                        self.options.backoff_s,
                        self.options.backoff_cap_s,
                    )
                    _lease_counter("expired")
                    events.emit(
                        "queue.lease",
                        action="expired",
                        run_id=self.ledger.run_id,
                        unit_id=entry.id,
                        holder=lease.worker,
                        breaker=self.worker_id,
                    )
                continue
            if not self.ledger.acquire_lease(
                entry.id, self.worker_id, self.options.ttl_s
            ):
                continue
            _lease_counter("acquired")
            events.emit(
                "queue.lease",
                action="acquired",
                run_id=self.ledger.run_id,
                unit_id=entry.id,
                worker=self.worker_id,
                ttl_s=self.options.ttl_s,
            )
            # Re-check under the lease: another worker may have finished the
            # unit between our state read and the acquisition.
            if self.ledger.unit_state(entry.id).terminal:
                self.ledger.release_lease(entry.id, self.worker_id)
                continue
            self._last_group = entry.group
            return entry
        return None

    # -- execution ------------------------------------------------------
    def _run_unit(self, entry: UnitEntry) -> None:
        unit = self._plan_units[entry.id]
        attempt = self.ledger.unit_state(entry.id).attempts + 1
        outcome_state = STATE_DONE
        try:
            with trace.span(
                "queue.unit",
                run_id=self.ledger.run_id,
                unit_id=entry.id,
                attempt=attempt,
                worker=self.worker_id,
                lease_ttl_s=self.options.ttl_s,
            ):
                with _Heartbeat(
                    self.ledger, entry.id, self.worker_id, self.options.ttl_s
                ):
                    outcome = self._execute(
                        unit, self.ledger.config, self.ledger.cache, self._memo
                    )
            self.ledger.write_result(entry.id, outcome)
            self.ledger.mark_done(entry.id, self.worker_id)
        except Exception:
            outcome_state = "retry"
            state = self.ledger.record_failed_attempt(
                entry.id,
                self.worker_id,
                traceback.format_exc(limit=8),
                self.options.max_attempts,
                self.options.backoff_s,
                self.options.backoff_cap_s,
            )
            if getattr(state, "state", None) == STATE_FAILED:
                outcome_state = STATE_FAILED
        finally:
            self.ledger.release_lease(entry.id, self.worker_id)
            _lease_counter("released")
        REGISTRY.counter(
            "repro_queue_units_total",
            "Queue unit executions by outcome", ("outcome",)
        ).labels(outcome=outcome_state).inc()
        events.emit(
            "queue.unit",
            run_id=self.ledger.run_id,
            unit_id=entry.id,
            worker=self.worker_id,
            attempt=attempt,
            outcome=outcome_state,
        )
        self.executed += 1

    def run(self) -> bool:
        """Drain the queue; ``True`` when every unit reached ``done``.

        Returns as soon as all units are terminal (or :attr:`max_units` is
        hit).  A ``False`` return means the run finished degraded — at least
        one unit is parked as failed or skipped (or is still owned by
        another live worker when ``max_units`` cut this loop short).
        """
        self.ledger.record_worker(self.worker_id, status="starting")
        idle_since: Optional[float] = None
        last_beat = time.time()
        while True:
            states = self._read_states()
            if self.ledger.is_complete(states):
                break
            if (
                self.options.max_units is not None
                and self.executed >= self.options.max_units
            ):
                break
            entry = self._claim_next(states)
            if entry is None:
                # Nothing claimable: either other workers hold every ready
                # unit, or all remaining units wait on deps/backoff.
                now = time.time()
                if idle_since is None or now - last_beat >= _IDLE_REBEAT_S:
                    idle_since = idle_since or now
                    last_beat = now
                    self.ledger.record_worker(
                        self.worker_id, status="idle", executed=self.executed
                    )
                time.sleep(self.options.poll_s)
                continue
            idle_since = None
            now = time.time()
            if now - last_beat >= _RUNNING_BEAT_S:
                last_beat = now
                self.ledger.record_worker(
                    self.worker_id,
                    status="running",
                    unit=entry.id,
                    title=entry.title,
                    executed=self.executed,
                )
            self._run_unit(entry)
        states = self._read_states()
        complete = all(s.state == STATE_DONE for s in states.values())
        self.ledger.record_worker(
            self.worker_id,
            status="exited",
            executed=self.executed,
            run_complete=self.ledger.is_complete(states),
        )
        return complete


def _work_entry(
    cache_root: str, run_id: str, options: Dict[str, Any], worker_id: str
) -> None:
    """Top-level process target (must be picklable for multiprocessing).

    Started by :func:`repro.spawn.spawn`, so the worker logs its spans and
    lease events where the process that called :func:`work` logs its own
    (segments are per-pid, so concurrent workers never interleave).
    """
    ledger = RunLedger.open(ArtifactCache(cache_root), run_id)
    QueueWorker(ledger, worker_id, WorkerOptions.from_dict(options)).run()


def work(
    cache: ArtifactCache,
    run_id: str,
    workers: int = 1,
    options: Optional[WorkerOptions] = None,
    execute: Optional[UnitExecutor] = None,
) -> bool:
    """Drain run ``run_id`` with ``workers`` local workers; ``True`` if all done.

    With ``workers == 1`` the loop runs in-process (simplest to debug and to
    monkeypatch ``execute`` in tests).  With more, worker *processes* are
    spawned — each opens the ledger itself, so this is the same code path as
    N independent hosts pointing at a shared cache directory.  Each starts
    through :func:`repro.spawn.spawn`: a one-thread BLAS pool, and this
    process's telemetry settings and event-log directory.
    """
    options = options or WorkerOptions()
    if workers <= 1:
        ledger = RunLedger.open(cache, run_id)
        return QueueWorker(ledger, options=options, execute=execute).run()
    if execute is not None:
        raise ValueError("a custom executor cannot cross process boundaries")
    procs = [
        spawn(
            _work_entry,
            (str(cache.root), run_id, options.as_dict(), f"{default_worker_id()}.{index}"),
        )
        for index in range(workers)
    ]
    for proc in procs:
        proc.join()
    ledger = RunLedger.open(cache, run_id)
    states = ledger.states()
    return ledger.is_complete(states) and all(
        s.state == STATE_DONE for s in states.values()
    )
