"""Tests of the reference runner (``tests/oracle.py``) the identity tests trust."""

from __future__ import annotations

import pytest

from repro.baselines import KNNLocalizer
from repro.eval import AttackScenario, EvaluationConfig

from oracle import ExperimentRunner


@pytest.fixture(scope="module")
def tiny_runner_config():
    return EvaluationConfig(
        buildings=("Building 3",),
        devices=("OP3", "MOTO"),
        attack_methods=("FGSM",),
        epsilons=(0.2,),
        phi_percents=(50.0,),
        rp_granularity_m=8.0,
        attack_seeds=(5,),
        epochs_per_lesson=2,
        baseline_epochs=15,
    )


class TestExperimentRunner:
    def test_campaign_is_cached(self, tiny_runner_config):
        runner = ExperimentRunner(tiny_runner_config)
        assert runner.campaign("Building 3") is runner.campaign("Building 3")

    def test_evaluate_knn_under_attack(self, tiny_runner_config):
        runner = ExperimentRunner(tiny_runner_config)
        scenarios = [
            AttackScenario(epsilon=0.0, phi_percent=0.0),
            AttackScenario(method="FGSM", epsilon=0.3, phi_percent=50.0, seed=5),
        ]
        results = runner.evaluate_model("KNN", lambda: KNNLocalizer(k=3), scenarios)
        # 1 building x 2 devices x 2 scenarios
        assert len(results) == 4
        clean = results.filter(attack="clean").mean_error()
        attacked = results.filter(attack="FGSM").mean_error()
        assert attacked > clean

    def test_surrogate_is_reused_for_non_differentiable_victims(self, tiny_runner_config):
        runner = ExperimentRunner(tiny_runner_config)
        campaign = runner.campaign("Building 3")
        knn = KNNLocalizer(k=3).fit(campaign.train)
        first = runner._gradient_provider(knn, campaign)
        second = runner._gradient_provider(knn, campaign)
        assert first is second

    def test_attacked_dataset_clean_scenario_passthrough(self, tiny_runner_config):
        runner = ExperimentRunner(tiny_runner_config)
        campaign = runner.campaign("Building 3")
        knn = KNNLocalizer(k=3).fit(campaign.train)
        test = campaign.test_for("OP3")
        result = runner.attacked_dataset(knn, test, AttackScenario(epsilon=0.0), campaign)
        assert result is test
