"""Integration tests for the per-figure experiment entry points.

These use an extra-small evaluation profile so the whole module stays fast;
the full-scale regeneration of every artefact lives in ``benchmarks/``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.eval import (
    ArtifactCache,
    EvaluationConfig,
    ModelTask,
    ablation_adaptive,
    fig1_attack_impact,
    fig4_heatmaps,
    fig5_curriculum,
    table1_devices,
    table2_buildings,
    table3_model_budget,
)
from repro.eval.engine import _model_payload, cache_key


@pytest.fixture(scope="module")
def micro_config():
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


class TestTables:
    def test_table1_lists_six_devices(self):
        result = table1_devices()
        assert len(result["rows"]) == 6
        assert "Oneplus" in result["text"]

    def test_table2_matches_paper_ap_counts(self):
        result = table2_buildings(rp_granularity_m=4.0)
        ap_counts = {row[0]: row[2] for row in result["rows"]}
        assert ap_counts["Building 5"] == 218
        assert "88 m" in result["text"]

    def test_table3_reports_deployable_budget(self):
        result = table3_model_budget()
        assert result["report"]["embedding_layers"] == 42496
        # Same order of magnitude as the paper's 65,239-parameter model.
        assert 40_000 < result["deployment_total"] < 130_000
        assert result["size_kb"] < 600

    def test_table3_custom_dimensions(self):
        result = table3_model_budget(num_aps=32, num_classes=10)
        assert result["report"]["embedding_layers"] == 2 * (32 * 128 + 128)


class TestFigures:
    def test_fig1_shows_attack_degradation(self, micro_config):
        result = fig1_attack_impact(micro_config)
        for model, stats in result["summary"].items():
            assert stats["attacked"] > stats["clean"], model
        assert "KNN" in result["text"]

    def test_fig5_produces_curves_for_both_variants(self, micro_config):
        result = fig5_curriculum(micro_config)
        curves = result["curves"]["FGSM"]
        assert len(curves["CALLOC"]) == len(micro_config.epsilons)
        assert len(curves["NC"]) == len(micro_config.epsilons)
        assert all(np.isfinite(curves["CALLOC"]))


class TestModelDigestSharing:
    """Spelling out a constructor default must not retrain the same model."""

    @staticmethod
    def _model_artefacts(cache: ArtifactCache) -> int:
        return sum(1 for path in (cache.root / "model").rglob("*") if path.is_file())

    def test_ablation_reuses_the_default_calloc(self, micro_config, tmp_path):
        shared = ArtifactCache(tmp_path / "shared")
        fig4 = fig4_heatmaps(micro_config, cache=shared)
        assert self._model_artefacts(shared) == 1
        ablation = ablation_adaptive(micro_config, cache=shared)
        # CALLOC-adaptive hits fig4's CALLOC; only CALLOC-static trains.
        assert self._model_artefacts(shared) == 2

        alone = ablation_adaptive(micro_config, cache=ArtifactCache(tmp_path / "alone"))
        assert ablation["results"].to_rows() == alone["results"].to_rows()
        adaptive = [
            {**row, "model": "CALLOC"}
            for row in ablation["results"].filter(model="CALLOC-adaptive").to_rows()
        ]
        assert adaptive == fig4["results"].to_rows()

    def test_only_restated_defaults_are_dropped(self):
        def digest(params):
            return cache_key("model", _model_payload(ModelTask.create("x", "CALLOC", params), "c"))

        assert digest({"adaptive": True}) == digest({})
        assert digest({"adaptive": False}) != digest({})
        # Another type is not a restatement (1 is not the default True).
        assert digest({"adaptive": 1}) != digest({})
        assert digest({"adaptive": True, "lr": 0.01}) == digest({"lr": 0.01})

