"""Fig. 7 — effect of the number of attacked APs (ø) on localization error.

Paper shape: under FGSM at ε = 0.1, CALLOC's error stays comparatively flat as
ø grows from a handful of APs to all of them, while the other frameworks —
including AdvLoc beyond ø ≈ 60 — degrade substantially.
"""

from __future__ import annotations

import numpy as np

from repro.eval import fig7_phi_sweep


def test_fig7_phi_sweep(benchmark, eval_config, save_artefact, artifact_cache):
    result = benchmark.pedantic(
        fig7_phi_sweep,
        kwargs={"config": eval_config, "cache": artifact_cache},
        rounds=1,
        iterations=1,
    )
    save_artefact("fig7_phi_sweep", result["text"])

    curves = result["curves"]
    phi_grid = result["phi_percents"]
    assert "CALLOC" in curves and "AdvLoc" in curves and "WiDeep" in curves
    assert all(len(values) == len(phi_grid) for values in curves.values())

    calloc = np.asarray(curves["CALLOC"])
    # CALLOC stays the lowest-error framework at the largest ø.
    for name, values in curves.items():
        if name != "CALLOC":
            assert values[-1] >= calloc[-1], name
    # CALLOC's degradation from the smallest to the largest ø stays bounded
    # (relatively stable errors as ø increases, unlike the other frameworks).
    assert calloc[-1] - calloc[0] < 6.0
