"""``repro.eval`` — metrics, scenario grids and the experiment harness.

Regenerates every table and figure of the paper's evaluation section (see
:mod:`repro.eval.figures` for the per-artefact entry points) and hosts the
pluggable robustness-scenario subsystem (:mod:`repro.eval.robustness`).
"""

from .engine import ArtifactCache, ModelTask, default_cache_dir
from .metrics import ErrorStats, aggregate_stats, error_stats, improvement_factor
from .reporting import ascii_table, format_factor_table, results_to_csv, text_heatmap
from .robustness import DEFAULT_SCENARIOS, RobustnessScenario, ScenarioSpec
from .runner import EvaluationRecord, ResultSet
from .scenarios import AttackScenario, EvaluationConfig

# Imported after the harness modules: figures (lazily) pulls in repro.api,
# which itself builds on the runner/scenarios modules above.
from .figures import (
    DEFAULT_ROBUSTNESS_MODELS,
    DEFAULT_SOTA_BASELINES,
    ablation_adaptive,
    fig1_attack_impact,
    fig4_heatmaps,
    fig5_curriculum,
    fig6_sota,
    fig6_spec,
    fig7_phi_sweep,
    robustness_matrix,
    table1_devices,
    table2_buildings,
    table3_model_budget,
)

__all__ = [
    "DEFAULT_SOTA_BASELINES",
    "DEFAULT_ROBUSTNESS_MODELS",
    "DEFAULT_SCENARIOS",
    "RobustnessScenario",
    "ScenarioSpec",
    "robustness_matrix",
    "fig6_spec",
    "ArtifactCache",
    "ModelTask",
    "default_cache_dir",
    "ErrorStats",
    "error_stats",
    "aggregate_stats",
    "improvement_factor",
    "ascii_table",
    "text_heatmap",
    "format_factor_table",
    "results_to_csv",
    "EvaluationRecord",
    "ResultSet",
    "AttackScenario",
    "EvaluationConfig",
    "table1_devices",
    "table2_buildings",
    "table3_model_budget",
    "fig1_attack_impact",
    "fig4_heatmaps",
    "fig5_curriculum",
    "fig6_sota",
    "fig7_phi_sweep",
    "ablation_adaptive",
]
