"""The durable run ledger: manifests, unit states, leases and results.

Everything here is plain files under ``<cache root>/queue/<run id>/`` so that
workers need nothing but a shared directory (local disk, NFS, a mounted
volume) to coordinate:

``manifest.json``
    Written once at submit time: the experiment spec, the package version,
    and one entry per work unit (content-addressed id, kind, payload digest,
    dependency edges, human title).  Workers rebuild the execution plan from
    the spec and verify their derived unit ids against the manifest, so a
    worker running drifted code fails loudly instead of computing under the
    wrong identity.

``state/<unit id>.json``
    The mutable unit record: state (``pending``/``done``/``failed``/
    ``skipped``), attempt count, earliest-retry time and last error.  A
    missing file means pristine ``pending`` — submit writes no per-unit
    state, keeping submission O(1) in I/O.

``leases/<unit id>.json``
    Existence marks the unit as leased.  Acquisition is atomic via
    ``os.link`` of a fully-written temp file (create-if-absent semantics
    that hold on shared filesystems); renewal atomically replaces the file
    with an extended expiry; expired leases are *broken* by renaming them to
    a unique tombstone, so exactly one worker wins the right to retire the
    dead worker's attempt.

``results/<unit id>.json``
    The unit's outcome document (see
    :func:`repro.eval.engine.execute_unit`), written atomically before the
    unit is marked done.

``workers/<worker id>.json``
    Heartbeat records for liveness reporting (`repro queue status`).

All mutating writes go through :func:`repro.atomic.write_atomic`, the same
temp-file + ``os.replace`` discipline as the artefact cache, so a reader can
never observe a torn file.
"""

from __future__ import annotations

import json
import os
import time
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Tuple

from ..atomic import write_atomic
from ..eval.engine import (
    ArtifactCache,
    ExecutionPlan,
    PlanUnit,
    plan_records,
    unit_digest,
    unit_id,
    unit_kind,
    unit_title,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..api import ExperimentSpec
    from ..eval.runner import ResultSet
    from ..eval.scenarios import EvaluationConfig

__all__ = [
    "STATE_PENDING",
    "STATE_DONE",
    "STATE_FAILED",
    "STATE_SKIPPED",
    "TERMINAL_STATES",
    "LEASE_BREAK_GRACE_S",
    "LedgerError",
    "UnitEntry",
    "UnitState",
    "Lease",
    "RunLedger",
    "queue_root",
    "collect_results",
]

STATE_PENDING = "pending"
STATE_DONE = "done"
STATE_FAILED = "failed"
STATE_SKIPPED = "skipped"
#: States a unit never leaves.
TERMINAL_STATES = frozenset({STATE_DONE, STATE_FAILED, STATE_SKIPPED})

#: Safety margin (seconds) a breaker waits past a lease's nominal expiry
#: before treating the holder as dead.  Expiry stamps are written with the
#: *holder's* wall clock and judged with the *breaker's*; without the margin
#: a few seconds of clock skew (or an NTP step on either side) makes a
#: healthy lease look expired exactly at the boundary and a live worker's
#: attempt gets booked as a death.  The margin only delays janitorial
#: takeover of genuinely dead workers — it never blocks the holder.
LEASE_BREAK_GRACE_S = 5.0

_MANIFEST = "manifest.json"


class LedgerError(RuntimeError):
    """A run ledger is missing, already exists, or disagrees with the code."""


def queue_root(cache: ArtifactCache) -> Path:
    """The queue directory of one artefact cache root."""
    return cache.root / "queue"


def _write_json(path: Path, document: Mapping[str, Any]) -> None:
    payload = json.dumps(document, indent=2, sort_keys=True)

    def writer(temp_path: Path) -> None:
        temp_path.write_text(payload + "\n")

    write_atomic(path, writer)


def _read_json(path: Path) -> Optional[Dict[str, Any]]:
    """Read one ledger JSON file; ``None`` when absent.

    A concurrently-replaced file is re-read once (atomic writes make a
    *torn* read impossible, but a reader can race the rename itself).
    """
    for _ in range(2):
        try:
            return json.loads(path.read_text())
        except FileNotFoundError:
            return None
        except (OSError, ValueError):  # pragma: no cover - rename race
            time.sleep(0.01)
    return None


@dataclass(frozen=True)
class UnitEntry:
    """One immutable manifest row: the identity of a work unit."""

    id: str
    kind: str
    index: int
    digest: str
    title: str
    deps: Tuple[str, ...] = ()
    group: str = ""
    """Affinity group (model × building).  Units of one group share warm
    worker state — the fitted surrogate above all — so the scheduler prefers
    keeping a group on the worker that last executed it."""

    def as_dict(self) -> Dict[str, Any]:
        return {
            "id": self.id,
            "kind": self.kind,
            "index": self.index,
            "digest": self.digest,
            "title": self.title,
            "deps": list(self.deps),
            "group": self.group,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "UnitEntry":
        return cls(
            id=data["id"],
            kind=data["kind"],
            index=int(data["index"]),
            digest=data["digest"],
            title=data["title"],
            deps=tuple(data.get("deps", ())),
            group=data.get("group", ""),
        )


@dataclass
class UnitState:
    """The mutable per-unit record (absent state file == pristine pending)."""

    state: str = STATE_PENDING
    attempts: int = 0
    not_before_unix: float = 0.0
    worker: Optional[str] = None
    updated_unix: float = 0.0
    error: Optional[str] = None

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def as_dict(self) -> Dict[str, Any]:
        return {
            "state": self.state,
            "attempts": self.attempts,
            "not_before_unix": self.not_before_unix,
            "worker": self.worker,
            "updated_unix": self.updated_unix,
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "UnitState":
        return cls(
            state=data.get("state", STATE_PENDING),
            attempts=int(data.get("attempts", 0)),
            not_before_unix=float(data.get("not_before_unix", 0.0)),
            worker=data.get("worker"),
            updated_unix=float(data.get("updated_unix", 0.0)),
            error=data.get("error"),
        )


@dataclass(frozen=True)
class Lease:
    """One live (or expired) claim on a unit."""

    worker: str
    acquired_unix: float
    expires_unix: float
    renewals: int = 0

    def expired(self, now: Optional[float] = None, grace_s: float = 0.0) -> bool:
        """Whether the lease has outlived its expiry by at least ``grace_s``.

        Breakers must pass :data:`LEASE_BREAK_GRACE_S` (clock-skew margin);
        the bare predicate is for the holder's own bookkeeping.
        """
        return (
            (now if now is not None else time.time())
            >= self.expires_unix + grace_s
        )

    def as_dict(self) -> Dict[str, Any]:
        return {
            "worker": self.worker,
            "acquired_unix": self.acquired_unix,
            "expires_unix": self.expires_unix,
            "renewals": self.renewals,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Lease":
        return cls(
            worker=data["worker"],
            acquired_unix=float(data["acquired_unix"]),
            expires_unix=float(data["expires_unix"]),
            renewals=int(data.get("renewals", 0)),
        )


class RunLedger:
    """Durable state of one submitted campaign run.

    Construct via :meth:`submit` (creates the ledger) or :meth:`open`
    (attaches to an existing one); both take the shared
    :class:`~repro.eval.engine.ArtifactCache` whose root every worker of the
    run must point at.
    """

    def __init__(self, cache: ArtifactCache, run_id: str) -> None:
        self.cache = cache
        self.run_id = run_id
        self.root = queue_root(cache) / run_id
        self._manifest: Optional[Dict[str, Any]] = None
        self._units: Optional[List[UnitEntry]] = None
        self._spec: Optional["ExperimentSpec"] = None
        self._config: Optional["EvaluationConfig"] = None
        self._plan: Optional[ExecutionPlan] = None

    # -- creation -------------------------------------------------------
    @staticmethod
    def derive_run_id(spec: "ExperimentSpec") -> str:
        """Deterministic run id: content digest of the spec document.

        Resubmitting the same experiment therefore lands on the same ledger
        (and errors instead of forking a duplicate run), while any change to
        the spec yields a fresh id.
        """
        from ..eval.engine import cache_key

        return "run-" + cache_key("queue-run", spec.to_dict())[:12]

    @classmethod
    def submit(
        cls,
        spec: "ExperimentSpec",
        cache: ArtifactCache,
        run_id: Optional[str] = None,
    ) -> "RunLedger":
        """Persist ``spec``'s execution plan as a new run ledger."""
        from .. import __version__

        if run_id is None:
            run_id = cls.derive_run_id(spec)
        elif not run_id or any(c in run_id for c in "/\\ \t\n"):
            raise LedgerError(f"invalid run id {run_id!r}")
        ledger = cls(cache, run_id)
        if ledger.root.exists():
            raise LedgerError(
                f"run '{run_id}' already exists at {ledger.root}; resume it "
                "with `repro queue work`, or pass --run-id for a fresh ledger"
            )
        config = spec.config()
        plan = spec.resolve_plan(config)
        units = _plan_entries(plan, config)
        manifest = {
            "run_id": run_id,
            "version": __version__,
            "created_unix": time.time(),
            "spec": spec.to_dict(),
            "stages": plan.stage_counts(),
            "units": [entry.as_dict() for entry in units],
        }
        for sub in ("state", "leases", "results", "workers"):
            (ledger.root / sub).mkdir(parents=True, exist_ok=True)
        _write_json(ledger.root / _MANIFEST, manifest)
        ledger._manifest = manifest
        ledger._units = units
        ledger._spec = spec
        ledger._config = config
        ledger._plan = plan
        return ledger

    @classmethod
    def open(cls, cache: ArtifactCache, run_id: str) -> "RunLedger":
        """Attach to an existing run ledger (verifying it loads)."""
        ledger = cls(cache, run_id)
        if ledger.manifest is None:
            known = cls.list_runs(cache)
            hint = f"; known runs: {', '.join(known)}" if known else ""
            raise LedgerError(
                f"no run '{run_id}' under {queue_root(cache)}{hint}"
            )
        return ledger

    @classmethod
    def list_runs(cls, cache: ArtifactCache) -> List[str]:
        """Run ids present under the cache's queue directory, oldest first."""
        root = queue_root(cache)
        if not root.is_dir():
            return []
        runs = [p for p in root.iterdir() if (p / _MANIFEST).is_file()]
        runs.sort(key=lambda p: (p / _MANIFEST).stat().st_mtime)
        return [p.name for p in runs]

    # -- manifest access ------------------------------------------------
    @property
    def manifest(self) -> Optional[Dict[str, Any]]:
        if self._manifest is None:
            self._manifest = _read_json(self.root / _MANIFEST)
        return self._manifest

    @property
    def units(self) -> List[UnitEntry]:
        if self._units is None:
            manifest = self.manifest
            if manifest is None:
                raise LedgerError(f"run '{self.run_id}' has no manifest")
            self._units = [UnitEntry.from_dict(u) for u in manifest["units"]]
        return self._units

    @property
    def spec(self) -> "ExperimentSpec":
        if self._spec is None:
            from ..api import ExperimentSpec

            manifest = self.manifest
            if manifest is None:
                raise LedgerError(f"run '{self.run_id}' has no manifest")
            self._spec = ExperimentSpec.from_dict(manifest["spec"])
        return self._spec

    @property
    def config(self) -> "EvaluationConfig":
        if self._config is None:
            self._config = self.spec.config()
        return self._config

    @property
    def plan(self) -> ExecutionPlan:
        """The execution plan, rebuilt from the spec and verified.

        Unit ids embed the package version, so a worker running different
        code than the submitter derives different ids — caught here instead
        of silently executing under the wrong identity.
        """
        if self._plan is None:
            plan = self.spec.resolve_plan(self.config)
            derived = [unit_id(unit, self.config) for unit in plan.all_units()]
            recorded = [entry.id for entry in self.units]
            if derived != recorded:
                from .. import __version__

                raise LedgerError(
                    f"run '{self.run_id}' manifest does not match the plan this "
                    f"code derives (manifest version "
                    f"{self.manifest.get('version')}, installed {__version__}); "
                    "resubmit the spec with the current package"
                )
            self._plan = plan
        return self._plan

    def units_by_id(self) -> Dict[str, UnitEntry]:
        return {entry.id: entry for entry in self.units}

    def plan_units_by_id(self) -> Dict[str, PlanUnit]:
        """Manifest id -> executable plan unit (same order as :attr:`units`)."""
        return {
            entry.id: unit
            for entry, unit in zip(self.units, self.plan.all_units())
        }

    # -- unit state -----------------------------------------------------
    def _state_path(self, uid: str) -> Path:
        return self.root / "state" / f"{uid}.json"

    def unit_state(self, uid: str) -> UnitState:
        document = _read_json(self._state_path(uid))
        return UnitState.from_dict(document) if document else UnitState()

    def _put_state(self, uid: str, state: UnitState) -> None:
        state.updated_unix = time.time()
        _write_json(self._state_path(uid), state.as_dict())

    def mark_done(self, uid: str, worker: str) -> None:
        state = self.unit_state(uid)
        state.state = STATE_DONE
        state.worker = worker
        state.error = None
        self._put_state(uid, state)

    def mark_skipped(self, uid: str, reason: str) -> None:
        state = self.unit_state(uid)
        if state.terminal:
            return
        state.state = STATE_SKIPPED
        state.error = reason
        self._put_state(uid, state)

    def record_failed_attempt(
        self,
        uid: str,
        worker: str,
        error: str,
        max_attempts: int,
        backoff_s: float,
        backoff_cap_s: float = 30.0,
    ) -> str:
        """Consume one attempt after a failure; park or schedule a retry.

        Returns the resulting state: ``failed`` once ``max_attempts`` is
        exhausted, else ``pending`` with ``not_before_unix`` pushed out by
        ``backoff_s * 2**(attempts-1)`` (capped) — exponential backoff that
        keeps a crashing unit from hot-looping a worker.
        """
        state = self.unit_state(uid)
        state.attempts += 1
        state.worker = worker
        state.error = error
        if state.attempts >= max_attempts:
            state.state = STATE_FAILED
        else:
            state.state = STATE_PENDING
            delay = min(backoff_s * (2.0 ** (state.attempts - 1)), backoff_cap_s)
            state.not_before_unix = time.time() + delay
        self._put_state(uid, state)
        return state.state

    # -- leases ---------------------------------------------------------
    def _lease_path(self, uid: str) -> Path:
        return self.root / "leases" / f"{uid}.json"

    def read_lease(self, uid: str) -> Optional[Lease]:
        document = _read_json(self._lease_path(uid))
        return Lease.from_dict(document) if document else None

    def acquire_lease(self, uid: str, worker: str, ttl_s: float) -> bool:
        """Atomically claim one unit; ``False`` when another holder won.

        The lease file is fully written to a temp name first and then
        ``os.link``\\ ed into place — create-if-absent semantics with complete
        content, the classic lock protocol that stays correct on shared
        (including network) filesystems.
        """
        now = time.time()
        lease = Lease(worker=worker, acquired_unix=now, expires_unix=now + ttl_s)
        path = self._lease_path(uid)
        path.parent.mkdir(parents=True, exist_ok=True)
        temp = path.parent / f".claim-{worker}-{uuid.uuid4().hex[:8]}"
        # repro-lint: allow[R3] private temp name, published atomically via
        # the os.link below — the link either materialises the complete file
        # or fails; write_atomic's os.replace would clobber a rival's lease.
        temp.write_text(json.dumps(lease.as_dict()) + "\n")
        try:
            os.link(temp, path)
            return True
        except FileExistsError:
            return False
        finally:
            temp.unlink()

    def renew_lease(self, uid: str, worker: str, ttl_s: float) -> bool:
        """Extend a held lease (heartbeat); ``False`` when it was lost."""
        lease = self.read_lease(uid)
        if lease is None or lease.worker != worker:
            return False
        renewed = Lease(
            worker=worker,
            acquired_unix=lease.acquired_unix,
            expires_unix=time.time() + ttl_s,
            renewals=lease.renewals + 1,
        )
        _write_json(self._lease_path(uid), renewed.as_dict())
        return True

    def release_lease(self, uid: str, worker: str) -> None:
        lease = self.read_lease(uid)
        if lease is not None and lease.worker == worker:
            try:
                self._lease_path(uid).unlink()
            except FileNotFoundError:  # pragma: no cover - racing break
                pass

    def record_expired_attempt(
        self,
        uid: str,
        breaker: str,
        max_attempts: int,
        backoff_s: float,
        backoff_cap_s: float = 30.0,
        grace_s: float = LEASE_BREAK_GRACE_S,
    ) -> Optional[str]:
        """Break one expired lease, consuming the dead worker's attempt.

        The lease is renamed to a unique tombstone first — ``os.rename`` is
        atomic, so of all workers observing the expiry exactly one wins the
        break and books the attempt; the rest see ``None`` and move on.  If
        the rename raced a heartbeat renewal the holder simply re-leases (or
        a sibling re-executes the unit — wasted work, never wrong results,
        since artefacts are content-addressed and written atomically).
        Returns the resulting unit state, or ``None`` when another worker
        won the break.
        """
        lease = self.read_lease(uid)
        if lease is None or not lease.expired(grace_s=grace_s):
            return None
        path = self._lease_path(uid)
        tombstone = path.parent / f".expired-{breaker}-{uuid.uuid4().hex[:8]}"
        try:
            os.rename(path, tombstone)
        except FileNotFoundError:
            return None
        tombstone.unlink()
        return self.record_failed_attempt(
            uid,
            breaker,
            f"lease of worker '{lease.worker}' expired "
            f"(last heartbeat {lease.renewals} renewals in)",
            max_attempts,
            backoff_s,
            backoff_cap_s,
        )

    # -- results --------------------------------------------------------
    def _result_path(self, uid: str) -> Path:
        return self.root / "results" / f"{uid}.json"

    def write_result(self, uid: str, document: Mapping[str, Any]) -> None:
        _write_json(self._result_path(uid), document)

    def read_result(self, uid: str) -> Optional[Dict[str, Any]]:
        return _read_json(self._result_path(uid))

    # -- workers --------------------------------------------------------
    def record_worker(self, worker: str, **fields: Any) -> None:
        document = {"worker": worker, "last_seen_unix": time.time(), **fields}
        _write_json(self.root / "workers" / f"{worker}.json", document)

    def workers(self) -> List[Dict[str, Any]]:
        directory = self.root / "workers"
        if not directory.is_dir():
            return []
        records = []
        for path in sorted(directory.glob("*.json")):
            document = _read_json(path)
            if document:
                records.append(document)
        return records

    # -- aggregate views ------------------------------------------------
    def transitioned_units(self) -> set:
        """Ids of units that ever left pristine ``pending``.

        A unit has a state file only once something happened to it, so one
        directory listing tells schedulers which units can be assumed
        pending without attempting a read per unit — the dominant syscall
        cost of scanning an early-stage run.
        """
        suffix = ".json"
        return {
            name[: -len(suffix)]
            for name in os.listdir(self.root / "state")
            if name.endswith(suffix)
        }

    def states(self) -> Dict[str, UnitState]:
        """Current state of every unit (reads only units that transitioned)."""
        transitioned = self.transitioned_units()
        return {
            entry.id: self.unit_state(entry.id)
            if entry.id in transitioned
            else UnitState()
            for entry in self.units
        }

    def is_complete(self, states: Optional[Mapping[str, UnitState]] = None) -> bool:
        states = states if states is not None else self.states()
        return all(state.terminal for state in states.values())


def _plan_entries(plan: ExecutionPlan, config: "EvaluationConfig") -> List[UnitEntry]:
    """Manifest rows for every plan unit, dependency edges resolved to ids."""
    units = plan.all_units()
    campaign_ids = {
        unit.building: unit_id(unit, config) for unit in plan.campaign_units
    }
    train_ids = {
        (unit.task.key, unit.building): unit_id(unit, config)
        for unit in plan.train_units
    }
    entries: List[UnitEntry] = []
    trains_standard: Dict[str, bool] = {}
    for index, unit in enumerate(units):
        kind = unit_kind(unit)
        if kind == "campaign":
            deps: Tuple[str, ...] = ()
        elif kind == "train":
            deps = (campaign_ids[unit.building],)
        elif kind == "eval":
            deps = (train_ids[(unit.task.key, unit.building)],)
        else:  # scenario: depends on the train unit only when it reuses it
            name = unit.spec.name
            if name not in trains_standard:
                trains_standard[name] = unit.spec.build().trains_standard_model
            deps = (
                (train_ids[(unit.task.key, unit.building)],)
                if trains_standard[name]
                else (campaign_ids[unit.building],)
            )
        group = (
            f"campaign@{unit.building}"
            if kind == "campaign"
            else f"{unit.task.label}@{unit.building}"
        )
        entries.append(
            UnitEntry(
                id=unit_id(unit, config),
                kind=kind,
                index=index,
                digest=unit_digest(unit, config),
                title=unit_title(unit),
                deps=deps,
                group=group,
            )
        )
    ids = [entry.id for entry in entries]
    if len(set(ids)) != len(ids):  # pragma: no cover - plan already rejects dupes
        raise LedgerError("duplicate unit ids in plan")
    return entries


def collect_results(
    ledger: RunLedger, allow_partial: bool = False
) -> "ResultSet":
    """Merge completed unit outcomes into a canonical-order ResultSet.

    The outcome documents are decoded by
    :func:`~repro.eval.engine.plan_records`, as a serial
    :func:`~repro.api.run_experiment` decodes its own, so a fully completed
    queue run compares byte-identical to a serial run of the same spec.  With ``allow_partial`` units that are not done are silently
    omitted (the graceful-degradation view of a run with parked failures);
    otherwise a missing outcome raises :class:`LedgerError`.
    """
    plan = ledger.plan
    outcomes = []
    for entry in ledger.units:
        document = ledger.read_result(entry.id)
        if document is None and not allow_partial:
            state = ledger.unit_state(entry.id)
            raise LedgerError(
                f"unit {entry.id} has no result (state '{state.state}'); run "
                "`repro queue work` to completion or pass --allow-partial"
            )
        outcomes.append(document)
    return plan_records(plan, outcomes)
