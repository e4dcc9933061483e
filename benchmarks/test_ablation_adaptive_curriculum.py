"""Sec. IV.D ablation — adaptive curriculum controller vs static curriculum.

DESIGN.md calls out the adaptive loss-monitoring back-off as a design choice
worth ablating: this benchmark trains CALLOC with and without the adaptive
controller and compares attacked localization error.
"""

from __future__ import annotations

import numpy as np

from repro.eval import ablation_adaptive


def test_ablation_adaptive_curriculum(benchmark, eval_config, save_artefact, artifact_cache):
    result = benchmark.pedantic(
        ablation_adaptive,
        kwargs={"config": eval_config, "cache": artifact_cache},
        rounds=1,
        iterations=1,
    )
    save_artefact("ablation_adaptive_curriculum", result["text"])

    stats = result["stats"]
    assert set(stats) == {"CALLOC-adaptive", "CALLOC-static"}
    adaptive_mean = stats["CALLOC-adaptive"]["mean"]
    static_mean = stats["CALLOC-static"]["mean"]
    assert np.isfinite(adaptive_mean) and np.isfinite(static_mean)
    # The adaptive controller must not substantially hurt accuracy; the exact
    # gap is recorded in benchmarks/results/ablation_adaptive_curriculum.txt.
    assert adaptive_mean <= static_mean * 1.25
    assert adaptive_mean < 12.0
