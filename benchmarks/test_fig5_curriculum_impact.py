"""Fig. 5 — impact of curriculum learning across attacks and ε.

Paper shape: the curriculum-trained model (CALLOC) keeps lower errors than the
no-curriculum variant (NC), with the gap most visible as adversarial pressure
grows.  The reproduction measures both variants over the same attack grid and
asserts the aggregate ordering (see ``benchmarks/results/fig5_curriculum_impact.txt``
for the measured gap, which is smaller than the paper reports).
"""

from __future__ import annotations

import numpy as np

from repro.eval import fig5_curriculum


def test_fig5_curriculum_impact(benchmark, eval_config, save_artefact, artifact_cache):
    result = benchmark.pedantic(
        fig5_curriculum,
        kwargs={"config": eval_config, "cache": artifact_cache},
        rounds=1,
        iterations=1,
    )
    save_artefact("fig5_curriculum_impact", result["text"])

    curves = result["curves"]
    assert set(curves) == set(eval_config.attack_methods)
    for method, data in curves.items():
        assert len(data["CALLOC"]) == len(eval_config.epsilons)
        assert np.isfinite(data["CALLOC"]).all() and np.isfinite(data["NC"]).all()

    # Aggregate over all attacks and ε values: curriculum training should not
    # be worse than the NC ablation, and both stay bounded.
    calloc_mean = np.mean([np.mean(curves[m]["CALLOC"]) for m in curves])
    nc_mean = np.mean([np.mean(curves[m]["NC"]) for m in curves])
    assert calloc_mean <= nc_mean * 1.1
    assert calloc_mean < 12.0
