"""Distributed campaign queue: durable run ledger + leasing workers.

The execution engine (:mod:`repro.eval.engine`) decomposes an
:class:`~repro.api.ExperimentSpec` into a content-addressed DAG of work
units, but executes it inside one process — a crash loses the whole run and
nothing coordinates more than one host.  This package promotes that DAG into
a multi-worker, crash-resumable campaign runner:

* :class:`RunLedger` — a durable on-disk run ledger under
  ``<cache root>/queue/<run id>/``: the unit manifest (id, kind, payload
  digest, dependency edges), per-unit state files
  (pending/done/failed/skipped + attempt counts), lease files and unit
  results, all written with the same atomic-rename discipline as the
  artefact cache.
* :class:`QueueWorker` / :func:`work` — any number of worker processes (or
  hosts sharing the cache directory) lease ready units via atomic lease
  files with TTL + heartbeat renewal, execute them through
  :func:`~repro.eval.engine.execute_unit`, the executor serial runs use
  too, so artefacts land in the shared
  :class:`~repro.eval.engine.ArtifactCache`, and retry failed or expired
  units with exponential backoff; a unit that exhausts its attempts is
  parked as ``failed`` and its dependents are ``skipped`` (graceful
  degradation, never a crash).
* :func:`collect_results` — merges completed unit outcomes back into a
  :class:`~repro.eval.runner.ResultSet` in canonical plan order, bit
  identical to a serial ``repro run`` of the same spec.
* :func:`run_status` / :func:`render_status` — the observability surface
  behind ``repro queue status`` and ``repro queue watch``.

Determinism stays the headline guarantee: a serial run, an N-worker queue
run, and a run killed mid-flight and resumed all produce byte-identical
result sets, because every unit derives its randomness from seeds carried in
the manifest and every artefact is content-addressed.  Mutual exclusion via
leases is therefore a *scheduling optimisation*, not a correctness
requirement — two workers racing on one unit would write identical bytes.
"""

from .ledger import (
    LEASE_BREAK_GRACE_S,
    STATE_DONE,
    STATE_FAILED,
    STATE_PENDING,
    STATE_SKIPPED,
    TERMINAL_STATES,
    Lease,
    LedgerError,
    RunLedger,
    UnitEntry,
    UnitState,
    collect_results,
    queue_root,
)
from .reporting import render_status, run_status, watch
from .worker import QueueWorker, WorkerOptions, work

__all__ = [
    "STATE_PENDING",
    "STATE_DONE",
    "STATE_FAILED",
    "STATE_SKIPPED",
    "TERMINAL_STATES",
    "LEASE_BREAK_GRACE_S",
    "Lease",
    "LedgerError",
    "RunLedger",
    "UnitEntry",
    "UnitState",
    "collect_results",
    "queue_root",
    "QueueWorker",
    "WorkerOptions",
    "work",
    "run_status",
    "render_status",
    "watch",
]
