"""Tests for queue workers: the headline determinism + degradation guarantees.

The contract under test (ISSUE: "jobs=1, N workers, and killed-and-resumed
runs produce bit-identical ResultSets"):

* an in-process worker drains a run and :func:`collect_results` equals the
  serial :func:`run_experiment` records byte-for-byte;
* a run interrupted mid-flight resumes executing only the units that had not
  completed, and still merges bit-identically;
* a unit whose worker died (expired lease) is retried by the next worker;
* a unit that exhausts its attempts is parked as failed and its dependents
  are skipped — the run drains degraded instead of deadlocking;
* two spawned worker processes sharing the cache directory produce the same
  records as the serial path;
* one worker that drains two runs of the same model label under different
  params serves each run its own trained model.
"""

from __future__ import annotations

import pytest

from repro.api import ExperimentSpec, run_experiment
from repro.eval.engine import ArtifactCache, execute_unit, unit_kind
from repro.queue import (
    STATE_DONE,
    STATE_FAILED,
    STATE_PENDING,
    STATE_SKIPPED,
    LedgerError,
    QueueWorker,
    RunLedger,
    WorkerOptions,
    collect_results,
    render_status,
    run_status,
    work,
)

FAST = WorkerOptions(poll_s=0.01, backoff_s=0.0)


@pytest.fixture(scope="module")
def spec() -> ExperimentSpec:
    return ExperimentSpec(
        models=("KNN", "DNN"),
        profile="quick",
        devices=("OP3",),
        attack_methods=("FGSM",),
        epsilons=(0.1,),
        phi_percents=(10.0,),
        robustness=("ap-outage",),
    )


@pytest.fixture(scope="module")
def serial_records(spec):
    return run_experiment(spec, cache=False).to_records()


@pytest.fixture
def cache(tmp_path) -> ArtifactCache:
    return ArtifactCache(tmp_path / "cache")


class TestSingleWorker:
    def test_drains_run_and_matches_serial(self, spec, cache, serial_records):
        ledger = RunLedger.submit(spec, cache)
        assert work(cache, ledger.run_id, options=FAST)
        assert collect_results(ledger).to_records() == serial_records
        status = run_status(ledger)
        assert status["complete"] and status["succeeded"]
        assert status["units_done"] == status["units_total"] == len(ledger.units)
        rendered = render_status(status)
        assert "run complete" in rendered and ledger.run_id in rendered

    def test_collect_before_completion_errors(self, spec, cache):
        ledger = RunLedger.submit(spec, cache)
        with pytest.raises(LedgerError, match="no result"):
            collect_results(ledger)
        assert len(collect_results(ledger, allow_partial=True)) == 0

    def test_interrupted_run_resumes_without_reexecution(
        self, spec, cache, serial_records
    ):
        ledger = RunLedger.submit(spec, cache)
        total = len(ledger.units)
        # "Kill" the first worker after two units: max_units simulates an
        # interruption at a unit boundary (a mid-unit kill additionally
        # leaves an expired lease, covered below).
        first = QueueWorker(
            ledger, "w1", WorkerOptions(poll_s=0.01, max_units=2)
        )
        first.run()
        done_before = {
            uid for uid, s in ledger.states().items() if s.state == STATE_DONE
        }
        assert len(done_before) == 2
        second = QueueWorker(ledger, "w2", FAST)
        assert second.run()
        # The resuming worker executed exactly the remainder.
        assert second.executed == total - 2
        assert collect_results(ledger).to_records() == serial_records

    def test_expired_lease_is_taken_over(self, spec, cache, serial_records):
        ledger = RunLedger.submit(spec, cache)
        victim = ledger.units[0].id
        # A worker died holding this lease: already expired, never renewed.
        assert ledger.acquire_lease(victim, "dead:0", ttl_s=0.0)
        worker = QueueWorker(ledger, "w2", WorkerOptions(poll_s=0.01, backoff_s=0.0))
        assert worker.run()
        state = ledger.unit_state(victim)
        assert state.state == STATE_DONE
        assert state.attempts == 1  # the broken lease booked the dead attempt
        assert collect_results(ledger).to_records() == serial_records


class TestGracefulDegradation:
    def test_failed_unit_parks_and_dependents_skip(self, spec, cache):
        ledger = RunLedger.submit(spec, cache)

        def flaky_execute(unit, config, cache_, memo):
            if unit_kind(unit) == "train" and unit.task.label == "DNN":
                raise RuntimeError("injected training failure")
            return execute_unit(unit, config, cache_, memo)

        worker = QueueWorker(
            ledger,
            "w1",
            WorkerOptions(poll_s=0.01, backoff_s=0.0, max_attempts=2),
            execute=flaky_execute,
        )
        assert not worker.run()  # run drains, but degraded
        states = ledger.states()
        by_id = ledger.units_by_id()
        failed = [u for u, s in states.items() if s.state == STATE_FAILED]
        skipped = [u for u, s in states.items() if s.state == STATE_SKIPPED]
        assert len(failed) == 1
        assert by_id[failed[0]].kind == "train"
        assert states[failed[0]].attempts == 2
        # DNN's eval + scenario units depend on the failed train unit.
        assert {by_id[u].kind for u in skipped} == {"eval", "scenario"}
        assert all(failed[0] in by_id[u].deps for u in skipped)
        # Every KNN unit still completed.
        done_kinds = [by_id[u].kind for u, s in states.items() if s.state == STATE_DONE]
        assert sorted(done_kinds) == ["campaign", "eval", "scenario", "train"]

        # Partial collection yields exactly the surviving model's records.
        partial = collect_results(ledger, allow_partial=True)
        assert partial.models() == ["KNN"]
        with pytest.raises(LedgerError, match="no result"):
            collect_results(ledger)
        status = run_status(ledger)
        assert status["complete"] and not status["succeeded"]
        assert len(status["failed_units"]) == 3
        assert "injected training failure" in render_status(status)

    def test_transient_failure_is_retried_to_success(self, spec, cache):
        ledger = RunLedger.submit(spec, cache)
        calls = {"n": 0}

        def flaky_once(unit, config, cache_, memo):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("transient")
            return execute_unit(unit, config, cache_, memo)

        worker = QueueWorker(
            ledger,
            "w1",
            WorkerOptions(poll_s=0.01, backoff_s=0.0, max_attempts=3),
            execute=flaky_once,
        )
        assert worker.run()
        states = ledger.states()
        assert all(s.state == STATE_DONE for s in states.values())
        assert sum(s.attempts for s in states.values()) == 1


class TestMultiProcess:
    def test_two_worker_processes_match_serial(self, spec, cache, serial_records):
        ledger = RunLedger.submit(spec, cache)
        assert work(
            cache,
            ledger.run_id,
            workers=2,
            options=WorkerOptions(poll_s=0.05),
        )
        assert collect_results(ledger).to_records() == serial_records
        status = run_status(ledger)
        assert status["succeeded"]
        assert len(status["workers"]) == 2

    def test_custom_executor_cannot_cross_processes(self, spec, cache):
        ledger = RunLedger.submit(spec, cache)
        with pytest.raises(ValueError, match="cannot cross process"):
            work(cache, ledger.run_id, workers=2, execute=lambda *a: {})


class TestWorkerMemo:
    def test_worker_draining_two_runs_trains_each_runs_model(self, tmp_path):
        """The per-worker model memo is keyed by the model artefact, not by
        the (label, defense) pair the two runs share."""

        def dnn_spec(epochs: int) -> ExperimentSpec:
            return ExperimentSpec(
                models=({"name": "DNN", "params": {"epochs": epochs}},),
                profile="quick",
                devices=("OP3",),
                attack_methods=("FGSM",),
                epsilons=(0.3,),
                phi_percents=(50.0,),
            )

        cache = ArtifactCache(tmp_path / "cache")
        drained = []
        for epochs in (5, 30):
            ledger = RunLedger.submit(dnn_spec(epochs), cache)
            assert work(cache, ledger.run_id, workers=1, options=FAST)
            drained.append(collect_results(ledger).to_records())
        serial = [
            run_experiment(dnn_spec(epochs), cache=False).to_records()
            for epochs in (5, 30)
        ]
        assert serial[0] != serial[1]
        assert drained == serial
