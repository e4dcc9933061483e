"""Fig. 4 — CALLOC localization-error heatmaps across devices, buildings and attacks.

Paper shape: CALLOC keeps errors low and fairly uniform across test devices
(device-heterogeneity resilience) under FGSM, PGD and MIM; iterative attacks
(PGD / MIM) are at least as strong as single-step FGSM.
"""

from __future__ import annotations

import numpy as np

from repro.eval import fig4_heatmaps


def test_fig4_heatmaps(benchmark, eval_config, save_artefact, artifact_cache):
    result = benchmark.pedantic(
        fig4_heatmaps,
        kwargs={"config": eval_config, "cache": artifact_cache},
        rounds=1,
        iterations=1,
    )
    save_artefact("fig4_heatmaps", result["text"])

    heatmaps = result["heatmaps"]
    assert set(heatmaps) == set(eval_config.attack_methods)
    for method, matrix in heatmaps.items():
        assert matrix.shape == (len(eval_config.devices), len(eval_config.buildings))
        assert np.isfinite(matrix).all()
        # CALLOC limits degradation: mean attacked error stays well below the
        # building's half-diagonal (~20 m for the simulated floors).
        assert matrix.mean() < 12.0, method

    # Device-heterogeneity resilience: the spread across devices stays small
    # relative to the error level itself (low errors across a heatmap row).
    for method, matrix in heatmaps.items():
        spread = matrix.max(axis=0) - matrix.min(axis=0)
        assert (spread <= np.maximum(3.0, matrix.mean(axis=0))).all(), method
