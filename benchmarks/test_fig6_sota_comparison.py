"""Fig. 6 — CALLOC vs state-of-the-art frameworks (mean / worst-case error).

Paper shape: averaged over devices, buildings, ε (0.1–0.5) and ø (1–100),
CALLOC has the lowest mean and worst-case localization error; AdvLoc (the only
other adversarially-trained framework) comes closest, while SANGRIA, ANVIL and
WiDeep degrade progressively more (paper factors: 1.77× / 2.64× / 3.77× /
6.03× in mean error).
"""

from __future__ import annotations

from repro.eval import fig6_sota


def test_fig6_sota_comparison(benchmark, eval_config, save_artefact, artifact_cache):
    result = benchmark.pedantic(
        fig6_sota,
        kwargs={"config": eval_config, "cache": artifact_cache},
        rounds=1,
        iterations=1,
    )
    save_artefact("fig6_sota_comparison", result["text"])

    stats = result["stats"]
    factors = result["factors"]
    assert set(stats) == {"CALLOC", "AdvLoc", "SANGRIA", "ANVIL", "WiDeep"}

    calloc_mean = stats["CALLOC"]["mean"]
    # Headline claim: CALLOC achieves the lowest mean error of all frameworks.
    for name, model_stats in stats.items():
        if name != "CALLOC":
            assert model_stats["mean"] >= calloc_mean, name

    # Every baseline is at least as bad as CALLOC (factor >= 1); the paper's
    # exact per-baseline ordering (AdvLoc < SANGRIA < ANVIL < WiDeep) only
    # partially reproduces — see benchmarks/results/fig6_sota_comparison.txt
    # for the measured factors.
    assert min(f["mean_factor"] for f in factors.values()) >= 1.0
    # At least one attack-unaware framework degrades clearly (>20%) vs CALLOC.
    assert max(f["mean_factor"] for f in factors.values()) >= 1.2
