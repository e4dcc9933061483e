"""Per-figure / per-table experiment definitions.

Each function regenerates one artefact of the paper's evaluation section and
returns a dictionary with the structured numbers plus a ``"text"`` rendering.
The pytest benchmarks under ``benchmarks/`` are thin wrappers around these
functions; they can also be called directly from scripts or notebooks.

Every model-grid artefact is expressed as a declarative
:class:`~repro.api.ExperimentSpec` executed serially through
:func:`~repro.api.run_experiment`, so the exact experiment a figure encodes
can be serialized to JSON (``fig6_spec().to_json()``), edited, and re-run
through the same path (``python -m repro run``).

Artefacts covered:

======================  =====================================================
``table1_devices``       Table I   — smartphone details
``table2_buildings``     Table II  — building floorplan details
``table3_model_budget``  Sec. V.A  — trainable parameters / model size
``fig1_attack_impact``   Fig. 1    — FGSM impact on KNN / GPC / DNN
``fig4_heatmaps``        Fig. 4    — CALLOC error heatmaps per attack
``fig5_curriculum``      Fig. 5    — curriculum vs no-curriculum across ε
``fig6_sota``            Fig. 6    — CALLOC vs state-of-the-art frameworks
``fig7_phi_sweep``       Fig. 7    — error vs number of attacked APs ø
``ablation_adaptive``    Sec. IV.D — adaptive vs static curriculum ablation
``robustness_matrix``    (beyond the paper) model × deployment-scenario matrix
======================  =====================================================
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..data.devices import PAPER_DEVICES
from ..data.floorplan import PAPER_BUILDING_SPECS, paper_building
from .reporting import ascii_table, format_factor_table, text_heatmap
from .runner import ResultSet
from .scenarios import AttackScenario, EvaluationConfig

__all__ = [
    "table1_devices",
    "table2_buildings",
    "table3_model_budget",
    "fig1_attack_impact",
    "fig4_heatmaps",
    "fig5_curriculum",
    "fig6_sota",
    "fig7_phi_sweep",
    "ablation_adaptive",
    "robustness_matrix",
    "fig6_spec",
    "DEFAULT_SOTA_BASELINES",
    "DEFAULT_ROBUSTNESS_MODELS",
]

#: Baselines of the Fig. 6/7 state-of-the-art comparison.
DEFAULT_SOTA_BASELINES = ("AdvLoc", "SANGRIA", "ANVIL", "WiDeep")

#: Models of the default robustness matrix: the framework plus one classical
#: and one neural baseline (kept small so the matrix stays CI-affordable).
DEFAULT_ROBUSTNESS_MODELS = ("CALLOC", "KNN", "DNN")


def _spec(models, **kwargs):
    """An :class:`ExperimentSpec` over ``models`` (late import avoids a cycle)."""
    from ..api import ExperimentSpec

    return ExperimentSpec(models=tuple(models), **kwargs)


def _run(spec, config: EvaluationConfig, cache: object) -> ResultSet:
    """Run ``spec`` under ``config`` in-process (late import avoids a cycle)."""
    from ..api import run_experiment

    return run_experiment(spec, config=config, cache=cache)


def fig6_spec(baselines: Optional[Sequence[str]] = None):
    """The declarative spec behind :func:`fig6_sota` (CALLOC + SOTA grid)."""
    from ..api import ExperimentSpec

    names = tuple(baselines) if baselines is not None else DEFAULT_SOTA_BASELINES
    return ExperimentSpec(models=("CALLOC",) + names, profile="quick", name="fig6")


# ----------------------------------------------------------------------
# Tables
# ----------------------------------------------------------------------
def table1_devices() -> Dict[str, object]:
    """Reproduce Table I (smartphone details)."""
    rows = [
        [profile.manufacturer, profile.model, profile.acronym]
        for profile in PAPER_DEVICES.values()
    ]
    text = ascii_table(rows, headers=["Manufacturer", "Model", "Acronym"])
    return {"rows": rows, "text": text}


def table2_buildings(rp_granularity_m: float = 1.0) -> Dict[str, object]:
    """Reproduce Table II (building details) and verify the generated geometry."""
    rows = []
    for name, spec in PAPER_BUILDING_SPECS.items():
        building = paper_building(name, rp_granularity_m=rp_granularity_m)
        rows.append(
            [
                name,
                spec.visible_aps,
                building.num_access_points,
                f"{spec.path_length_m:.0f} m",
                f"{building.path_length_m:.0f} m",
                building.num_reference_points,
                ", ".join(spec.characteristics),
            ]
        )
    text = ascii_table(
        rows,
        headers=[
            "Building",
            "APs (paper)",
            "APs (built)",
            "Path (paper)",
            "Path (built)",
            "RPs",
            "Characteristics",
        ],
    )
    return {"rows": rows, "text": text}


def table3_model_budget(num_aps: int = 165, num_classes: int = 61) -> Dict[str, object]:
    """Reproduce the Sec. V.A model budget (parameter breakdown, size in kB).

    ``num_aps`` / ``num_classes`` default to values consistent with the
    paper's reported budget (65,239 parameters, 254.84 kB).
    """
    from ..core import CALLOCModel

    rng = np.random.default_rng(0)
    reference = rng.random((num_classes, num_aps))
    positions = rng.random((num_classes, 2)) * 50.0
    model = CALLOCModel(
        num_aps=num_aps,
        num_classes=num_classes,
        reference_features=reference,
        reference_positions=positions,
    )
    report = model.parameter_report()
    # The embedding decoders only serve the reconstruction objective during
    # training and are dropped at deployment, so the deployable budget
    # excludes them (this is what compares against the paper's 65,239).
    deployment_total = report["total"] - report["embedding_decoders"]
    size_kb = deployment_total * 4 / 1000.0
    paper = {
        "embedding_layers": 42496,
        "attention_layer": 18961,
        "fully_connected": 3782,
        "total": 65239,
        "size_kb": 254.84,
    }
    rows = [
        ["embedding layers", paper["embedding_layers"], report["embedding_layers"]],
        ["attention layer", paper["attention_layer"], report["attention_layer"]],
        ["fully connected", paper["fully_connected"], report["fully_connected"]],
        ["embedding decoders (training only)", "-", report["embedding_decoders"]],
        ["deployable total", paper["total"], deployment_total],
        ["deployable size (kB)", paper["size_kb"], round(size_kb, 2)],
    ]
    text = ascii_table(rows, headers=["component", "paper", "reproduction"])
    return {
        "report": report,
        "deployment_total": deployment_total,
        "size_kb": size_kb,
        "paper": paper,
        "rows": rows,
        "text": text,
    }


# ----------------------------------------------------------------------
# Figures
# ----------------------------------------------------------------------
def fig1_attack_impact(
    config: Optional[EvaluationConfig] = None,
    cache: object = None,
) -> Dict[str, object]:
    """Fig. 1: localization error of KNN / GPC / DNN with and without FGSM."""
    config = config or EvaluationConfig.quick()
    scenarios = (
        AttackScenario(method="FGSM", epsilon=0.0, phi_percent=0.0),
        AttackScenario(method="FGSM", epsilon=0.3, phi_percent=50.0, seed=config.attack_seeds[0]),
    )
    model_names = ("KNN", "GPC", "DNN")
    spec = _spec(
        model_names,
        scenarios=scenarios,
        buildings=config.buildings[:1],
        name="fig1",
    )
    results = _run(spec, config, cache)
    summary: Dict[str, Dict[str, float]] = {}
    rows = []
    for model_name in model_names:
        clean = results.filter(model=model_name, attack="clean").mean_error()
        attacked = results.filter(model=model_name, attack="FGSM").mean_error()
        summary[model_name] = {
            "clean": clean,
            "attacked": attacked,
            "increase_factor": attacked / clean if clean > 0 else float("inf"),
        }
        rows.append([model_name, clean, attacked, attacked / clean])
    text = ascii_table(
        rows, headers=["model", "no attack (m)", "FGSM attack (m)", "error increase x"]
    )
    return {"summary": summary, "results": results, "rows": rows, "text": text}


def fig4_heatmaps(
    config: Optional[EvaluationConfig] = None,
    cache: object = None,
) -> Dict[str, object]:
    """Fig. 4: CALLOC mean-error heatmaps (device × building) per attack method."""
    config = config or EvaluationConfig.quick()
    spec = _spec(("CALLOC",), buildings=config.buildings, name="fig4")
    results = _run(spec, config, cache)
    heatmaps: Dict[str, np.ndarray] = {}
    texts: List[str] = []
    for method in config.attack_methods:
        matrix = np.zeros((len(config.devices), len(config.buildings)))
        for row, device in enumerate(config.devices):
            for col, building in enumerate(config.buildings):
                subset = results.filter(attack=method, device=device, building=building)
                matrix[row, col] = subset.mean_error()
        heatmaps[method] = matrix
        texts.append(
            text_heatmap(
                matrix,
                row_labels=list(config.devices),
                col_labels=[b.replace("Building ", "B") for b in config.buildings],
                title=f"{method} attack — CALLOC mean error (m)",
            )
        )
    return {"heatmaps": heatmaps, "results": results, "text": "\n\n".join(texts)}


def fig5_curriculum(
    config: Optional[EvaluationConfig] = None,
    cache: object = None,
) -> Dict[str, object]:
    """Fig. 5: curriculum (CALLOC) vs no-curriculum (NC) across attacks and ε."""
    from ..api import ModelSpec

    config = config or EvaluationConfig.quick()
    spec = _spec(
        (
            ModelSpec("CALLOC"),
            ModelSpec("CALLOC", params={"use_curriculum": False}, label="NC"),
        ),
        name="fig5",
    )
    results = _run(spec, config, cache)
    curves: Dict[str, Dict[str, List[float]]] = {}
    rows = []
    for method in config.attack_methods:
        curves[method] = {"epsilon": list(config.epsilons), "CALLOC": [], "NC": []}
        for epsilon in config.epsilons:
            for model_name in ("CALLOC", "NC"):
                subset = results.filter(model=model_name, attack=method, epsilon=epsilon)
                curves[method][model_name].append(subset.mean_error())
            rows.append(
                [
                    method,
                    epsilon,
                    curves[method]["CALLOC"][-1],
                    curves[method]["NC"][-1],
                    curves[method]["NC"][-1] / max(curves[method]["CALLOC"][-1], 1e-9),
                ]
            )
    text = ascii_table(
        rows, headers=["attack", "epsilon", "CALLOC (m)", "NC (m)", "NC / CALLOC"]
    )
    return {"curves": curves, "results": results, "rows": rows, "text": text}


def fig6_sota(
    config: Optional[EvaluationConfig] = None,
    baselines: Optional[Sequence[str]] = None,
    cache: object = None,
) -> Dict[str, object]:
    """Fig. 6: CALLOC vs state-of-the-art frameworks (mean and worst-case error)."""
    config = config or EvaluationConfig.quick()
    spec = fig6_spec(baselines)
    results = _run(spec, config, cache)

    stats: Dict[str, Dict[str, float]] = {}
    for model_name in (m.display_name for m in spec.models):
        summary = results.filter(model=model_name).error_summary()
        stats[model_name] = {"mean": summary.mean, "worst_case": summary.worst_case}
    calloc_stats = stats["CALLOC"]
    baseline_stats = {name: s for name, s in stats.items() if name != "CALLOC"}
    factors = {
        name: {
            "mean_factor": s["mean"] / calloc_stats["mean"],
            "worst_factor": s["worst_case"] / calloc_stats["worst_case"],
        }
        for name, s in baseline_stats.items()
    }
    text = format_factor_table(calloc_stats, baseline_stats)
    return {"stats": stats, "factors": factors, "results": results, "text": text}


def fig7_phi_sweep(
    config: Optional[EvaluationConfig] = None,
    baselines: Optional[Sequence[str]] = None,
    method: str = "FGSM",
    epsilon: float = 0.1,
    cache: object = None,
) -> Dict[str, object]:
    """Fig. 7: mean error vs number of attacked APs ø (FGSM, ε = 0.1)."""
    config = config or EvaluationConfig.quick()
    names = ("CALLOC",) + (
        tuple(baselines) if baselines is not None else DEFAULT_SOTA_BASELINES
    )
    spec = _spec(
        names,
        attack_methods=(method,),
        epsilons=(epsilon,),
        name="fig7",
    )
    results = _run(spec, config, cache)

    curves: Dict[str, List[float]] = {name: [] for name in names}
    for phi in config.phi_percents:
        for name in names:
            curves[name].append(results.filter(model=name, phi=phi).mean_error())
    rows = []
    for name, values in curves.items():
        rows.append([name] + [round(v, 2) for v in values])
    text = ascii_table(
        rows, headers=["model"] + [f"phi={phi:.0f}%" for phi in config.phi_percents]
    )
    return {
        "phi_percents": list(config.phi_percents),
        "curves": curves,
        "results": results,
        "text": text,
    }


def robustness_matrix(
    config: Optional[EvaluationConfig] = None,
    models: Optional[Sequence[str]] = None,
    scenarios: Optional[Sequence[str]] = None,
    cache: object = None,
) -> Dict[str, object]:
    """Robustness matrix: mean error per model × deployment scenario.

    Sweeps every registered robustness scenario family (temporal drift, AP
    outage, rogue APs, unseen-device generalization, adaptive black-box
    attacker — see :mod:`repro.eval.robustness`) against the ``clean``
    reference column, without the crafted-attack grid.  The returned dict
    carries the matrix, the per-record rows (``csv_rows``) for CSV export,
    and an ASCII rendering.
    """
    config = config or EvaluationConfig.quick()
    names = tuple(models) if models is not None else DEFAULT_ROBUSTNESS_MODELS
    specs = config.robustness_scenarios(scenarios)
    spec = _spec(
        names,
        scenarios=(),
        robustness=tuple(specs),
        name="robustness",
    )
    results = _run(spec, config, cache)
    scenario_names = [s.display_name for s in specs]
    matrix = np.zeros((len(names), len(scenario_names)))
    rows = []
    for row_index, model_name in enumerate(names):
        row: List[object] = [model_name]
        for col_index, scenario_name in enumerate(scenario_names):
            cell = results.filter(model=model_name, scenario=scenario_name)
            matrix[row_index, col_index] = cell.mean_error()
            row.append(round(matrix[row_index, col_index], 2))
        rows.append(row)
    text = ascii_table(rows, headers=["model"] + scenario_names)
    return {
        "scenarios": scenario_names,
        "models": list(names),
        "matrix": matrix,
        "results": results,
        "rows": rows,
        "csv_rows": results.to_rows(),
        "text": text,
    }


def ablation_adaptive(
    config: Optional[EvaluationConfig] = None,
    cache: object = None,
) -> Dict[str, object]:
    """Sec. IV.D ablation: adaptive curriculum controller vs static curriculum."""
    from ..api import ModelSpec

    config = config or EvaluationConfig.quick()
    labels = ("CALLOC-adaptive", "CALLOC-static")
    spec = _spec(
        (
            ModelSpec("CALLOC", params={"adaptive": True}, label=labels[0]),
            ModelSpec("CALLOC", params={"adaptive": False}, label=labels[1]),
        ),
        attack_methods=("FGSM",),
        name="ablation",
    )
    results = _run(spec, config, cache)
    rows = []
    stats = {}
    for name in labels:
        summary = results.filter(model=name).error_summary()
        stats[name] = {"mean": summary.mean, "worst_case": summary.worst_case}
        rows.append([name, summary.mean, summary.worst_case])
    text = ascii_table(rows, headers=["variant", "mean err (m)", "worst err (m)"])
    return {"stats": stats, "results": results, "rows": rows, "text": text}
