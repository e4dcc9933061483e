"""Tests for the declarative experiment API (``repro.api``)."""

from __future__ import annotations

import json

import numpy as np
import pytest

import repro.eval.engine
from repro.api import (
    ExperimentSpec,
    LocalizationService,
    ModelSpec,
    default_model_params,
    model_params,
    run_experiment,
)
from repro.baselines import KNNLocalizer
from repro.eval import AttackScenario, EvaluationConfig, fig6_spec
from repro.eval.metrics import error_stats
from repro.eval.runner import EvaluationRecord, ResultSet
from repro.interfaces import ErrorSummary
from repro.registry import make_localizer

from oracle import ExperimentRunner

#: A deliberately tiny grid so the end-to-end tests stay fast.
SMALL_CONFIG = EvaluationConfig(
    buildings=("Building 1",),
    devices=("OP3",),
    attack_methods=("FGSM",),
    epsilons=(0.3,),
    phi_percents=(50.0,),
    rp_granularity_m=4.0,
    attack_seeds=(11,),
    baseline_epochs=5,
)


class TestModelSpec:
    def test_from_bare_name(self):
        spec = ModelSpec.from_dict("KNN")
        assert spec.name == "KNN"
        assert spec.display_name == "KNN"
        assert spec.to_dict() == {"name": "KNN"}

    def test_round_trip_with_params_and_label(self):
        spec = ModelSpec("CALLOC", params={"use_curriculum": False}, label="NC")
        assert ModelSpec.from_dict(spec.to_dict()) == spec
        assert spec.display_name == "NC"

    def test_factory_merges_profile_defaults_and_overrides(self):
        config = SMALL_CONFIG
        dnn = make_localizer("DNN", **model_params(ModelSpec("DNN"), config))
        assert dnn.epochs == config.baseline_epochs
        assert dnn.seed == config.model_seed
        overridden = model_params(ModelSpec("DNN", params={"epochs": 2}), config)
        assert overridden == {"epochs": 2, "seed": config.model_seed}
        assert make_localizer("DNN", **overridden).epochs == 2

    def test_default_params_cover_calloc(self):
        params = default_model_params("CALLOC", SMALL_CONFIG)
        assert params == {
            "epochs_per_lesson": SMALL_CONFIG.epochs_per_lesson,
            "seed": SMALL_CONFIG.model_seed,
        }


class TestExperimentSpec:
    def _full_spec(self) -> ExperimentSpec:
        return ExperimentSpec(
            models=(
                ModelSpec("CALLOC"),
                ModelSpec("CALLOC", params={"use_curriculum": False}, label="NC"),
                "KNN",
            ),
            profile="standard",
            buildings=("Building 1",),
            devices=("OP3", "S7"),
            scenarios=(
                AttackScenario(method="FGSM", epsilon=0.0, phi_percent=0.0),
                AttackScenario(method="PGD", epsilon=0.3, phi_percent=50.0, seed=13),
            ),
            name="round-trip",
        )

    def test_dict_round_trip(self):
        spec = self._full_spec()
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_json_round_trip(self):
        spec = self._full_spec()
        restored = ExperimentSpec.from_json(spec.to_json())
        assert restored == spec
        # and the JSON itself is plain data
        data = json.loads(spec.to_json())
        assert data["profile"] == "standard"
        assert data["models"][2] == {"name": "KNN"}

    def test_file_round_trip(self, tmp_path):
        spec = self._full_spec()
        path = spec.save(tmp_path / "spec.json")
        assert ExperimentSpec.load(path) == spec

    def test_grid_round_trip_without_scenarios(self):
        spec = ExperimentSpec(
            models=("KNN",),
            attack_methods=("FGSM",),
            epsilons=(0.1, 0.3),
            phi_percents=(50.0,),
        )
        restored = ExperimentSpec.from_dict(spec.to_dict())
        assert restored == spec
        scenarios = restored.resolve_scenarios(SMALL_CONFIG)
        assert {s.epsilon for s in scenarios} == {0.1, 0.3}

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="unknown profile"):
            ExperimentSpec(models=("KNN",), profile="huge")

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment spec fields"):
            ExperimentSpec.from_dict({"models": ["KNN"], "modells": []})

    def test_validate_rejects_unknown_model(self):
        with pytest.raises(KeyError):
            ExperimentSpec(models=("ResNet",))

    def test_duplicate_labels_rejected(self):
        spec = ExperimentSpec(models=("KNN", "KNN"))
        with pytest.raises(ValueError, match="duplicate model label"):
            spec.resolve_model_tasks(SMALL_CONFIG)

    def test_empty_models_rejected(self):
        with pytest.raises(ValueError, match="no models"):
            ExperimentSpec().resolve_model_tasks(SMALL_CONFIG)

    def test_fig6_spec_round_trips_and_resolves(self):
        spec = fig6_spec()
        assert ExperimentSpec.from_json(spec.to_json()) == spec
        tasks = spec.resolve_model_tasks(SMALL_CONFIG)
        assert [task.label for task in tasks] == [
            "CALLOC", "AdvLoc", "SANGRIA", "ANVIL", "WiDeep"
        ]


class TestRunSpec:
    def test_spec_execution_matches_legacy_path(self):
        """run_experiment(spec-from-JSON) == the factory-dict path, record for record."""
        config = SMALL_CONFIG
        legacy = ExperimentRunner(config).evaluate_models(
            {"KNN": lambda: KNNLocalizer()}, config.scenarios()
        )
        spec = ExperimentSpec.from_json(json.dumps({"models": ["KNN"]}))
        fresh = run_experiment(spec, config=config)
        assert len(fresh) == len(legacy) > 0
        for got, expected in zip(fresh.records, legacy.records):
            assert got.model == expected.model
            assert got.scenario == expected.scenario
            assert got.stats == expected.stats

    def test_run_experiment_uses_spec_profile(self, monkeypatch):
        configs = []

        def fake_execute(unit, config, cache, memo):
            configs.append(config)
            return None  # plan_records skips a unit without an outcome

        monkeypatch.setattr(repro.eval.engine, "execute_unit", fake_execute)
        spec = ExperimentSpec(models=("KNN",), profile="standard")
        assert len(run_experiment(spec)) == 0
        assert configs
        assert all(config == EvaluationConfig.standard() for config in configs)


class TestResultSetHelpers:
    def _record(self, epsilon: float, errors) -> EvaluationRecord:
        return EvaluationRecord(
            model="KNN",
            building="Building 1",
            device="OP3",
            scenario=AttackScenario(method="FGSM", epsilon=epsilon, phi_percent=50.0),
            stats=error_stats(errors),
        )

    def test_filter_tolerates_float_rounding(self):
        # 0.1 + 0.2 != 0.3 exactly; filter must still match.
        results = ResultSet([self._record(0.1 + 0.2, [1.0])])
        assert len(results.filter(epsilon=0.3)) == 1
        assert len(results.filter(epsilon=0.4)) == 0
        # exact and string criteria still behave
        assert len(results.filter(model="KNN", attack="FGSM")) == 1
        assert len(results.filter(model="DNN")) == 0

    def test_error_summary_single_pass_matches_pairwise(self):
        results = ResultSet(
            [self._record(0.1, [1.0, 3.0]), self._record(0.3, [2.0, 2.0, 8.0])]
        )
        summary = results.error_summary()
        assert isinstance(summary, ErrorSummary)
        assert summary.mean == pytest.approx(results.mean_error())
        assert summary.worst_case == results.worst_case_error()
        assert summary.count == 5

    def test_error_summary_empty_raises(self):
        with pytest.raises(ValueError):
            ResultSet().error_summary()


class TestLocalizerErrorSummary:
    def test_matches_individual_metrics(self, trained_knn, tiny_campaign):
        test = tiny_campaign.test_for("S7")
        summary = trained_knn.error_summary(test)
        assert summary.mean == pytest.approx(trained_knn.mean_error(test))
        assert summary.worst_case == pytest.approx(trained_knn.worst_case_error(test))
        assert summary.count == test.num_samples


class TestLocalizationService:
    def test_localize_matches_direct_predict(self, tiny_campaign):
        service = LocalizationService("KNN", params={"k": 3}, batch_size=7)
        assert not service.is_fitted
        service.fit(tiny_campaign.train)
        test = tiny_campaign.test_for("S7")
        result = service.localize(test)
        np.testing.assert_array_equal(
            result.labels, service.localizer.predict(test.features)
        )
        np.testing.assert_allclose(
            result.coordinates, test.rp_positions[result.labels]
        )
        assert np.isfinite(result.error_estimate).all()
        assert (result.error_estimate >= 0).all()
        assert result.probabilities.shape == (len(result), test.num_classes)

    def test_single_fingerprint_promoted_to_batch(self, tiny_campaign):
        service = LocalizationService("KNN").fit(tiny_campaign.train)
        single = tiny_campaign.test_for("S7").features[0]
        result = service.localize(single)
        assert len(result) == 1
        assert result.coordinates.shape == (1, 2)

    def test_batching_is_invisible(self, tiny_campaign):
        test = tiny_campaign.test_for("S7")
        big = LocalizationService("KNN", batch_size=10_000).fit(tiny_campaign.train)
        small = LocalizationService("KNN", batch_size=3).fit(tiny_campaign.train)
        np.testing.assert_array_equal(
            big.localize(test).labels, small.localize(test).labels
        )

    def test_localize_before_fit_raises(self):
        with pytest.raises(RuntimeError, match="fitted"):
            LocalizationService("KNN").localize(np.zeros((1, 4)))

    def test_empty_batch(self, tiny_campaign):
        service = LocalizationService("KNN").fit(tiny_campaign.train)
        result = service.localize(np.empty((0, tiny_campaign.train.num_aps)))
        assert len(result) == 0
        assert result.labels.shape == (0,)
        assert result.coordinates.shape == (0, 2)
        assert result.error_estimate.shape == (0,)

    def test_wrong_ap_count_raises_clear_error(self, tiny_campaign):
        service = LocalizationService("KNN").fit(tiny_campaign.train)
        with pytest.raises(ValueError, match="APs"):
            service.localize(np.zeros((2, tiny_campaign.train.num_aps + 1)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rows_are_rejected_by_index(self, tiny_campaign, bad):
        service = LocalizationService("KNN").fit(tiny_campaign.train)
        features = tiny_campaign.test_for("S7").features[:5].copy()
        features[1, 0] = bad
        features[3, -1] = bad
        with pytest.raises(ValueError, match=r"2 fingerprint\(s\).*rows \[1, 3\]"):
            service.localize(features)

    def test_partial_predict_proba_never_misaligns(self, tiny_campaign):
        """Regression: a model returning proba for some chunks and None for
        others must not silently misalign probabilities with labels."""
        test = tiny_campaign.test_for("S7")
        reference = LocalizationService("KNN", params={"k": 3}).fit(
            tiny_campaign.train
        )
        expected_labels = reference.localize(test.features).labels

        class FlakyProba:
            """Wraps a fitted KNN; predict_proba answers only every other chunk."""

            def __init__(self, inner):
                self._inner = inner
                self._calls = 0

            def fit(self, dataset):
                self._inner.fit(dataset)
                return self

            def predict(self, features):
                return self._inner.predict(features)

            def predict_proba(self, features):
                self._calls += 1
                if self._calls % 2 == 0:
                    return None
                return self._inner.predict_proba(features)

        service = LocalizationService(
            "KNN", params={"k": 3}, batch_size=3, _localizer=FlakyProba(reference.localizer)
        )
        service.fit(tiny_campaign.train)
        result = service.localize(test.features)
        # Labels stay correct and aligned; probabilities are dropped wholesale
        # (None) instead of silently covering only the answered chunks.
        np.testing.assert_array_equal(result.labels, expected_labels)
        assert result.probabilities is None
        assert np.isnan(result.error_estimate).all()

    def test_knn_save_load_identical_predictions(self, tiny_campaign, tmp_path):
        service = LocalizationService("KNN", params={"k": 3})
        service.fit(tiny_campaign.train)
        test = tiny_campaign.test_for("BLU")
        path = service.save(tmp_path / "knn_service.npz")
        restored = LocalizationService.load(path)
        assert restored.model_name == "KNN"
        assert restored.params == {"k": 3}
        assert restored.is_fitted
        np.testing.assert_array_equal(
            restored.localize(test).labels, service.localize(test).labels
        )

    def test_calloc_save_load_identical_predictions(
        self, trained_calloc, tiny_campaign, tmp_path
    ):
        params = {
            "embed_dim": 32,
            "attention_dim": 16,
            "num_lessons": 4,
            "epochs_per_lesson": 3,
            "seed": 0,
        }
        service = LocalizationService("CALLOC", params=params)
        # Adopt the session-scoped fitted model instead of retraining.
        service.localizer = trained_calloc
        service._rp_positions = np.asarray(tiny_campaign.train.rp_positions)
        test = tiny_campaign.test_for("S7")
        path = service.save(tmp_path / "calloc_service.npz")
        restored = LocalizationService.load(path)
        np.testing.assert_array_equal(
            restored.localize(test).labels, trained_calloc.predict(test.features)
        )
        np.testing.assert_allclose(
            restored.localizer.predict_proba(test.features),
            trained_calloc.predict_proba(test.features),
        )

    def test_save_requires_state_protocol(self, tiny_campaign):
        service = LocalizationService("NaiveBayes")
        with pytest.raises(RuntimeError, match="unfitted"):
            service.save("unused.npz")
        service.fit(tiny_campaign.train)
        with pytest.raises(TypeError, match="persistence"):
            service.save("unused.npz")

    def test_save_rejects_non_json_params_naming_the_key(self, tiny_campaign, tmp_path):
        """Satellite: non-JSON params fail fast with the offending key, not
        deep inside json.dumps."""
        service = LocalizationService("KNN", params={"k": 3})
        service.fit(tiny_campaign.train)
        service.params["weights"] = np.arange(3)  # ndarray: not JSON-serializable
        with pytest.raises(TypeError, match="'weights'"):
            service.save(tmp_path / "bad.npz")
        # No partial archive was written.
        assert not (tmp_path / "bad.npz").exists()
        del service.params["weights"]
        assert service.save(tmp_path / "good.npz").exists()

    def test_state_arrays_round_trip(self, tiny_campaign):
        service = LocalizationService("KNN", params={"k": 3}).fit(tiny_campaign.train)
        test = tiny_campaign.test_for("S7")
        restored = LocalizationService.from_state_arrays(service.state_arrays())
        np.testing.assert_array_equal(
            restored.localize(test).labels, service.localize(test).labels
        )

    def test_evaluate_returns_error_summary(self, tiny_campaign):
        service = LocalizationService("KNN").fit(tiny_campaign.train)
        test = tiny_campaign.test_for("S7")
        summary = service.evaluate(test)
        assert isinstance(summary, ErrorSummary)
        assert summary.count == test.num_samples
