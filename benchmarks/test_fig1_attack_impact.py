"""Fig. 1 — accuracy reduction of KNN / GPC / DNN under an FGSM attack.

Paper shape: all three classical ML localizers lose substantial accuracy
(errors grow by several times) when the RSS inputs are adversarially
perturbed.
"""

from __future__ import annotations

from repro.eval import fig1_attack_impact


def test_fig1_attack_impact(benchmark, eval_config, save_artefact, artifact_cache):
    result = benchmark.pedantic(
        fig1_attack_impact,
        kwargs={"config": eval_config, "cache": artifact_cache},
        rounds=1,
        iterations=1,
    )
    save_artefact("fig1_attack_impact", result["text"])

    summary = result["summary"]
    assert set(summary) == {"KNN", "GPC", "DNN"}
    for model, stats in summary.items():
        # Every victim loses accuracy under attack...
        assert stats["attacked"] > stats["clean"], model
        # ...and the degradation is substantial (paper shows multi-x increases).
        assert stats["increase_factor"] > 1.5, model
