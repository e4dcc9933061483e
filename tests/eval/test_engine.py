"""Tests for the cache-aware execution engine and ``run_experiment``.

Covers the determinism guarantees the engine advertises (``jobs=N`` queue
drains and the warm-cache path are bit-identical to the serial cold path),
the queue-backed ``jobs>1`` path's clean-up and failure reporting, the
content-addressed cache keying rules, and the engine-backed entry points
(:func:`repro.api.run_experiment`, :meth:`LocalizationService.trained_on`).
"""

from __future__ import annotations

import gc
import os
import subprocess
import sys
import tempfile
import textwrap
import weakref
from pathlib import Path

import numpy as np
import pytest

import repro.eval.engine
import repro.queue
from repro.api import ExperimentSpec, LocalizationService, ModelSpec, run_experiment
from repro.eval.engine import (
    ArtifactCache,
    ModelTask,
    build_plan,
    cache_key,
    default_cache_dir,
    simulate_campaign,
    train_localizer,
)
from repro.eval.scenarios import AttackScenario, EvaluationConfig

from oracle import ExperimentRunner, spec_factories


@pytest.fixture(scope="module")
def quick_spec() -> ExperimentSpec:
    """Quick-profile spec, restricted enough to keep the test suite fast.

    Uses the quick profile's grid definition (building, granularity, seeds)
    with a reduced model/device/scenario selection; KNN exercises the
    surrogate-gradient path, DNN the native white-box path.
    """
    return ExperimentSpec(
        models=("KNN", "DNN"),
        profile="quick",
        devices=("OP3", "S7"),
        attack_methods=("FGSM",),
        epsilons=(0.1, 0.3),
        phi_percents=(10.0, 50.0),
    )


@pytest.fixture(scope="module")
def serial_records(quick_spec):
    return run_experiment(quick_spec).to_records()


class TestDeterminism:
    def test_parallel_matches_serial_bit_for_bit(self, quick_spec, serial_records):
        """jobs=4 and jobs=1 produce identical ResultSet.to_records()."""
        parallel = run_experiment(quick_spec, jobs=4)
        assert parallel.to_records() == serial_records

    def test_engine_matches_legacy_serial_runner(self, quick_spec, serial_records):
        config = quick_spec.config()
        runner = ExperimentRunner(config)
        legacy = runner.evaluate_models(
            spec_factories(quick_spec, config),
            quick_spec.resolve_scenarios(config),
            buildings=quick_spec.buildings,
            devices=quick_spec.devices,
        )
        assert legacy.to_records() == serial_records

    def test_warm_cache_is_bit_identical_to_cold(
        self, quick_spec, serial_records, tmp_path
    ):
        cache_dir = tmp_path / "cache"
        cold = run_experiment(quick_spec, cache=cache_dir)
        warm = run_experiment(quick_spec, cache=cache_dir)
        assert cold.to_records() == serial_records
        assert warm.to_records() == serial_records

    def test_warm_cache_serves_all_artifacts(self, quick_spec, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        run_experiment(quick_spec, cache=cache)
        warm_cache = ArtifactCache(tmp_path / "cache")
        run_experiment(quick_spec, cache=warm_cache)
        assert warm_cache.stats.misses == 0
        assert warm_cache.stats.hits > 0
        # 1 campaign + 2 models + 2 models x 2 devices x 1 crafted grid: all
        # four FGSM scenarios of a unit are crafted (and cached) as a single
        # batched artefact per attack method, not one artefact per scenario.
        assert warm_cache.stats.hits == 1 + 2 + 2 * 2 * 1

    def test_parallel_warm_cache_identical(self, quick_spec, serial_records, tmp_path):
        run_experiment(quick_spec, cache=tmp_path / "cache")
        warm_parallel = run_experiment(quick_spec, jobs=3, cache=tmp_path / "cache")
        assert warm_parallel.to_records() == serial_records


#: One cheap model on one device and one attack point: a few plan units.
TINY_SPEC = ExperimentSpec(
    models=("KNN",),
    profile="quick",
    devices=("OP3",),
    attack_methods=("FGSM",),
    epsilons=(0.3,),
    phi_percents=(50.0,),
)


def _runs_left(cache_dir: Path) -> list:
    queue_dir = cache_dir / "queue"
    return sorted(os.listdir(queue_dir)) if queue_dir.exists() else []


class TestQueueJobs:
    """``jobs>1`` drains an ephemeral run ledger with spawned queue workers."""

    def test_ledger_is_removed_after_success(self, tmp_path):
        cache_dir = tmp_path / "cache"
        records = run_experiment(TINY_SPEC, jobs=2, cache=cache_dir).to_records()
        assert records == run_experiment(TINY_SPEC).to_records()
        assert _runs_left(cache_dir) == []

    def test_no_temporary_cache_is_left_with_caching_off(self, tmp_path, monkeypatch):
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        run_experiment(TINY_SPEC, jobs=2, cache=False)
        assert os.listdir(scratch) == []

    def test_failing_unit_raises_one_error_naming_it(self, tmp_path):
        spec = ExperimentSpec(
            models=({"name": "KNN", "params": {"k": 0}},),
            profile="quick",
            devices=("OP3",),
            attack_methods=("FGSM",),
            epsilons=(0.3,),
            phi_percents=(50.0,),
        )
        cache_dir = tmp_path / "cache"
        with pytest.raises(RuntimeError, match=r"unit train-\w+ \(train KNN/none") as excinfo:
            run_experiment(spec, jobs=2, cache=cache_dir)
        message = str(excinfo.value)
        assert "failed after 3 attempt(s)" in message
        assert "k must be positive" in message
        assert "repro queue work" not in message
        assert _runs_left(cache_dir) == []

    def test_workers_exiting_early_name_the_first_pending_unit(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(repro.queue, "work", lambda cache, run_id, workers: False)
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        pending = r"unit campaign-\w+ \(campaign Building 1\): pending"
        with pytest.raises(RuntimeError, match=pending) as excinfo:
            run_experiment(TINY_SPEC, jobs=2, cache=False)
        assert 'if __name__ == "__main__":' in str(excinfo.value)
        assert os.listdir(scratch) == []

    def test_unguarded_script_fails_instead_of_hanging(self, tmp_path):
        script = tmp_path / "unguarded.py"
        script.write_text(
            textwrap.dedent(
                f"""
                from repro.api import ExperimentSpec, run_experiment

                spec = ExperimentSpec.from_json({TINY_SPEC.to_json(indent=None)!r})
                run_experiment(spec, jobs=2, cache={str(tmp_path / "cache")!r})
                """
            )
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
        process = subprocess.run(
            [sys.executable, str(script)],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert process.returncode != 0
        assert "pending" in process.stderr
        assert 'if __name__ == "__main__":' in process.stderr
        assert _runs_left(tmp_path / "cache") == []

    def test_custom_config_is_rejected_above_one_job(self):
        with pytest.raises(ValueError, match="profile"):
            run_experiment(TINY_SPEC, config=EvaluationConfig.standard(), jobs=2)


class TestArtifactCache:
    def test_coerce(self, tmp_path):
        assert ArtifactCache.coerce(None) is None
        assert ArtifactCache.coerce(False) is None
        enabled = ArtifactCache.coerce(True)
        assert enabled is not None and enabled.root == default_cache_dir()
        at_path = ArtifactCache.coerce(tmp_path)
        assert at_path.root == tmp_path
        assert ArtifactCache.coerce(at_path) is at_path

    def test_key_is_stable_and_sensitive(self):
        config = EvaluationConfig.quick()
        payload = {"building": "Building 1", "config": config}
        assert cache_key("campaign", payload) == cache_key("campaign", payload)
        other = {"building": "Building 2", "config": config}
        assert cache_key("campaign", payload) != cache_key("campaign", other)
        assert cache_key("model", payload) != cache_key("campaign", payload)

    def test_model_params_change_the_key(self):
        a = ModelTask.create("KNN", "KNN", {"k": 3})
        b = ModelTask.create("KNN", "KNN", {"k": 5})
        assert cache_key("model", {"m": a}) != cache_key("model", {"m": b})

    def test_pickle_roundtrip(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        assert cache.get_pickle("thing", "ab" * 32) is None
        cache.put_pickle("thing", "ab" * 32, {"value": 42})
        assert cache.get_pickle("thing", "ab" * 32) == {"value": 42}
        assert cache.stats.as_dict() == {"hits": 1, "misses": 1, "stores": 1}

    def test_array_roundtrip(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        arrays = {"a": np.arange(6.0).reshape(2, 3), "b": np.array([1, 2])}
        digest = "cd" * 32
        cache.put_arrays("batch", digest, arrays)
        loaded = cache.get_arrays("batch", digest)
        np.testing.assert_array_equal(loaded["a"], arrays["a"])
        np.testing.assert_array_equal(loaded["b"], arrays["b"])

    def test_export_copies_artifact_out(self, tmp_path):
        """The export hook hands stored artefacts to downstream registries
        (e.g. the serving ModelStore) as standalone files."""
        cache = ArtifactCache(tmp_path / "cache")
        arrays = {"a": np.arange(4.0)}
        cache.put_arrays("batch", "ab" * 32, arrays)
        exported = cache.export("batch", "ab" * 32, tmp_path / "out" / "artifact")
        assert exported == tmp_path / "out" / "artifact.npz"
        with np.load(exported) as archive:
            np.testing.assert_array_equal(archive["a"], arrays["a"])
        cache.put_pickle("thing", "cd" * 32, {"value": 1})
        exported_pkl = cache.export("thing", "cd" * 32, tmp_path / "thing.pkl")
        assert exported_pkl.suffix == ".pkl"
        with pytest.raises(FileNotFoundError):
            cache.export("batch", "ef" * 32, tmp_path / "missing")

    def test_disabled_cache_stores_nothing(self, tmp_path, monkeypatch):
        # cache=None (or False) is the one way to run without a cache.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert ArtifactCache.coerce(None) is None
        assert ArtifactCache.coerce(False) is None
        run_experiment(TINY_SPEC, cache=False)
        assert not any(tmp_path.iterdir())

    def test_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
        assert default_cache_dir() == tmp_path / "elsewhere"


class TestPlan:
    def test_unit_counts(self):
        tasks = [ModelTask.create("KNN", "KNN", {}), ModelTask.create("DNN", "DNN", {})]
        scenarios = (AttackScenario(), AttackScenario(epsilon=0.2))
        plan = build_plan(tasks, scenarios, ("Building 1", "Building 2"), ("OP3",))
        assert len(plan.campaign_units) == 2
        assert len(plan.train_units) == 4
        assert len(plan.eval_units) == 4  # 2 models x 2 buildings x 1 device
        assert plan.num_units == 10
        assert "2 campaign" in plan.describe()

    def test_empty_tasks_rejected(self):
        with pytest.raises(ValueError, match="at least one model"):
            build_plan([], (), ("Building 1",), ("OP3",))

    def test_engine_rejects_bad_jobs(self, quick_spec):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            run_experiment(quick_spec, jobs=0)


class TestEngineUnits:
    def test_campaign_cache_roundtrip(self, tmp_path):
        config = EvaluationConfig(
            buildings=("Building 3",), rp_granularity_m=8.0, campaign_seed=7
        )
        cache = ArtifactCache(tmp_path)
        cold, digest_cold = simulate_campaign("Building 3", config, cache)
        warm, digest_warm = simulate_campaign("Building 3", config, cache)
        assert digest_cold == digest_warm
        np.testing.assert_array_equal(cold.train.rss_dbm, warm.train.rss_dbm)
        assert cache.stats.hits == 1

    def test_trained_model_cache_roundtrip(self, tmp_path):
        config = EvaluationConfig(
            buildings=("Building 3",), rp_granularity_m=8.0, campaign_seed=7
        )
        cache = ArtifactCache(tmp_path)
        campaign, digest = simulate_campaign("Building 3", config, cache)
        task = ModelTask.create("KNN", "KNN", {"k": 3})
        cold, model_digest = train_localizer(task, campaign, digest, cache)
        warm, warm_digest = train_localizer(task, campaign, digest, cache)
        assert model_digest == warm_digest
        features = campaign.test_for("OP3").features
        np.testing.assert_array_equal(cold.predict(features), warm.predict(features))

    def test_service_trained_on_uses_cache(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        service = LocalizationService.trained_on(
            "Building 1", model="KNN", profile="quick", cache=cache
        )
        assert service.is_fitted
        warm_cache = ArtifactCache(tmp_path)
        again = LocalizationService.trained_on(
            "Building 1", model="KNN", profile="quick", cache=warm_cache
        )
        assert warm_cache.stats.misses == 0
        assert warm_cache.stats.hits == 2  # campaign + trained model
        # Same fitted state: identical predictions on identical queries.
        num_aps = service.localizer._features.shape[1]
        queries = np.random.default_rng(123).random((6, num_aps))
        np.testing.assert_array_equal(
            service.localize(queries).labels, again.localize(queries).labels
        )


#: Drains quickly: no idle poll to speak of, no retry backoff.
FAST_WORKER = repro.queue.WorkerOptions(poll_s=0.01, backoff_s=0.0)


def _drain(spec: ExperimentSpec, cache_dir: Path) -> list:
    """Records of ``spec`` drained by one in-process queue worker."""
    cache = ArtifactCache(cache_dir)
    ledger = repro.queue.RunLedger.submit(spec, cache)
    assert repro.queue.work(cache, ledger.run_id, workers=1, options=FAST_WORKER)
    return repro.queue.collect_results(ledger).to_records()


class TestRunScopedMemo:
    """Serial runs and queue workers execute units through one executor whose
    memo of campaigns, models and surrogates lives as long as the run."""

    #: KNN is attacked through a surrogate, DNN through its own gradient.
    SPEC = ExperimentSpec(
        models=("KNN", "DNN"),
        profile="quick",
        devices=("OP3",),
        attack_methods=("FGSM",),
        epsilons=(0.3,),
        phi_percents=(50.0,),
    )

    @pytest.fixture
    def trained(self, monkeypatch) -> list:
        """Weak references to every model ``train_localizer`` returns."""
        original = repro.eval.engine.train_localizer
        refs = []

        def tracking(*args, **kwargs):
            model, digest = original(*args, **kwargs)
            refs.append(weakref.ref(model))
            return model, digest

        monkeypatch.setattr(repro.eval.engine, "train_localizer", tracking)
        return refs

    @staticmethod
    def _alive(refs: list) -> int:
        gc.collect()
        return sum(ref() is not None for ref in refs)

    def test_no_model_outlives_a_queue_drain(self, trained, tmp_path):
        _drain(self.SPEC, tmp_path / "cache")
        assert len(trained) == 2
        assert self._alive(trained) == 0

    def test_no_model_outlives_a_serial_run(self, trained):
        run_experiment(self.SPEC)
        assert len(trained) == 2
        assert self._alive(trained) == 0

    def test_labels_sharing_a_model_digest_fit_once(self, monkeypatch, tmp_path):
        # k=5 restates KNN's default, so both labels key the same artefact.
        spec = ExperimentSpec(
            models=(
                ModelSpec("KNN"),
                ModelSpec("KNN", params={"k": 5}, label="KNN-k5"),
            ),
            profile="quick",
            devices=("OP3",),
            attack_methods=("FGSM",),
            epsilons=(0.3,),
            phi_percents=(50.0,),
        )
        config = spec.config()
        reference = ExperimentRunner(config).evaluate_models(
            spec_factories(spec, config),
            spec.resolve_scenarios(config),
            buildings=spec.buildings,
            devices=spec.devices,
        ).to_records()

        original = repro.eval.engine.train_localizer
        fits = []

        def counting(task, *args, **kwargs):
            fits.append(task.label)
            return original(task, *args, **kwargs)

        monkeypatch.setattr(repro.eval.engine, "train_localizer", counting)
        serial = run_experiment(spec, cache=False).to_records()
        assert len(fits) == len(config.buildings)
        assert {record["model"] for record in serial} == {"KNN", "KNN-k5"}
        assert serial == reference
        assert _drain(spec, tmp_path / "cache") == reference
