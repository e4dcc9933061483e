"""Unit tests for scenario grids, evaluation configs and result sets."""

from __future__ import annotations

import pytest

from repro.data.devices import device_acronyms
from repro.eval import (
    AttackScenario,
    EvaluationConfig,
    EvaluationRecord,
    ResultSet,
    error_stats,
)


class TestAttackScenario:
    def test_clean_detection(self):
        assert AttackScenario(epsilon=0.0).is_clean
        assert AttackScenario(phi_percent=0.0).is_clean
        assert not AttackScenario(epsilon=0.1, phi_percent=10.0).is_clean

    def test_label(self):
        assert AttackScenario(epsilon=0.0).label() == "clean"
        assert "FGSM" in AttackScenario(method="FGSM", epsilon=0.2, phi_percent=30).label()


class TestEvaluationConfig:
    def test_profiles_have_increasing_scope(self):
        quick = EvaluationConfig.quick()
        full = EvaluationConfig.full()
        assert len(quick.buildings) < len(full.buildings)
        assert quick.rp_granularity_m > full.rp_granularity_m

    def test_full_profile_covers_paper_grid(self):
        full = EvaluationConfig.full()
        assert len(full.buildings) == 5
        assert set(full.devices) == set(device_acronyms())
        assert full.epsilons == (0.1, 0.2, 0.3, 0.4, 0.5)

    def test_scenario_expansion_size(self):
        config = EvaluationConfig.quick()
        scenarios = config.scenarios()
        expected = (
            len(config.attack_methods)
            * len(config.epsilons)
            * len(config.phi_percents)
            * len(config.attack_seeds)
        )
        assert len(scenarios) == expected

    def test_scenario_expansion_with_overrides(self):
        config = EvaluationConfig.quick()
        scenarios = config.scenarios(methods=("FGSM",), epsilons=(0.1,), phi_percents=(50.0,))
        assert len(scenarios) == len(config.attack_seeds)
        assert all(s.method == "FGSM" for s in scenarios)


class TestResultSet:
    def _record(self, model="KNN", attack="FGSM", epsilon=0.1, phi=10.0, errors=(1.0, 2.0)):
        scenario = AttackScenario(method=attack, epsilon=epsilon, phi_percent=phi)
        return EvaluationRecord(
            model=model,
            building="Building 1",
            device="OP3",
            scenario=scenario,
            stats=error_stats(list(errors)),
        )

    def test_filter_by_model_and_epsilon(self):
        results = ResultSet([self._record(model="A", epsilon=0.1), self._record(model="B", epsilon=0.3)])
        assert len(results.filter(model="A")) == 1
        assert len(results.filter(epsilon=0.3)) == 1
        assert len(results.filter(model="A", epsilon=0.3)) == 0

    def test_mean_error_is_sample_weighted(self):
        results = ResultSet(
            [self._record(errors=(1.0,)), self._record(errors=(3.0, 3.0, 3.0))]
        )
        assert results.mean_error() == pytest.approx(2.5)

    def test_worst_case(self):
        results = ResultSet([self._record(errors=(1.0, 9.0)), self._record(errors=(2.0,))])
        assert results.worst_case_error() == pytest.approx(9.0)

    def test_empty_resultset_raises(self):
        with pytest.raises(ValueError):
            ResultSet().mean_error()

    def test_models_and_rows(self):
        results = ResultSet([self._record(model="A"), self._record(model="B")])
        assert results.models() == ["A", "B"]
        rows = results.to_rows()
        assert rows[0]["building"] == "Building 1"
