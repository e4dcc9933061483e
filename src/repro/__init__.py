"""repro — reproduction of CALLOC (DATE 2024).

CALLOC: Curriculum Adversarial Learning for Secure and Robust Indoor
Localization.  The package provides:

* :mod:`repro.nn` — a from-scratch NumPy neural-network substrate;
* :mod:`repro.data` — a Wi-Fi RSS fingerprint campaign simulator matching the
  paper's Table I devices and Table II buildings;
* :mod:`repro.attacks` — FGSM / PGD / MIM white-box attacks and channel-side
  MITM wrappers;
* :mod:`repro.core` — the CALLOC framework (curriculum adversarial learning
  with a scaled dot-product attention model);
* :mod:`repro.defenses` — the pluggable defense subsystem: curriculum and
  PGD adversarial training generalized to any gradient-capable localizer,
  input-noise smoothing, and the statistical adversarial-fingerprint
  detector served as an online guard (``@register_defense`` /
  :func:`make_defense`, declarable via :class:`DefenseSpec`);
* :mod:`repro.baselines` — the state-of-the-art localizers CALLOC is compared
  against (KNN, GPC, DNN, CNN, AdvLoc, ANVIL, SANGRIA, WiDeep, ...);
* :mod:`repro.eval` — metrics, scenario grids and the experiment harness that
  regenerates every table and figure of the paper's evaluation;
* :mod:`repro.registry` — the plugin registry every model and attack is
  published through (``@register_localizer`` / ``@register_attack``,
  :func:`make_localizer` / :func:`make_attack`);
* :mod:`repro.api` — the declarative entry point: serializable
  :class:`ExperimentSpec` experiments executed by :func:`run_experiment`
  (in-process, or by queue workers at ``jobs>1``), and the
  :class:`LocalizationService` facade for the online phase;
* :mod:`repro.serve` — the production serving layer: the versioned
  :class:`ModelStore` (``publish``/``resolve``/``promote``), the
  multi-tenant :class:`Gateway` with LRU loading and per-endpoint metrics,
  the :class:`MicroBatcher` throughput executor, and the ``repro serve``
  asyncio HTTP API (JSON or binary bodies) with its :class:`ServiceClient`.

Quickstart::

    from repro import ExperimentSpec, run_experiment

    spec = ExperimentSpec.from_dict({
        "profile": "quick",
        "models": ["CALLOC", "KNN"],
        "buildings": ["Building 1"],
    })
    results = run_experiment(spec)
    print(results.error_summary())

The same experiments are reachable from the command line via
``python -m repro`` (``list-models``, ``list-attacks``, ``artefact``, ``run``).
"""

from .api import (
    ExperimentSpec,
    LocalizationResult,
    LocalizationService,
    ModelSpec,
    run_experiment,
)
from .core import CALLOC
from .defenses import Defense, DefenseSpec, GuardRejectedError
from .eval import ArtifactCache, ResultSet, ScenarioSpec
from .interfaces import (
    DifferentiableLocalizer,
    ErrorSummary,
    Localizer,
    localization_errors,
)
from .registry import (
    available_attacks,
    available_defenses,
    available_localizers,
    available_scenarios,
    make_attack,
    make_defense,
    make_localizer,
    make_scenario,
    register_attack,
    register_defense,
    register_localizer,
    register_scenario,
)
from .queue import QueueWorker, RunLedger, WorkerOptions, collect_results
from .serve import Gateway, MicroBatcher, ModelStore, ServiceClient

__version__ = "8.0.0"

__all__ = [
    "CALLOC",
    "Localizer",
    "DifferentiableLocalizer",
    "ErrorSummary",
    "localization_errors",
    "ModelSpec",
    "ExperimentSpec",
    "ScenarioSpec",
    "Defense",
    "DefenseSpec",
    "GuardRejectedError",
    "ArtifactCache",
    "ResultSet",
    "run_experiment",
    "LocalizationService",
    "LocalizationResult",
    "ModelStore",
    "Gateway",
    "MicroBatcher",
    "ServiceClient",
    "RunLedger",
    "QueueWorker",
    "WorkerOptions",
    "collect_results",
    "register_localizer",
    "register_attack",
    "register_scenario",
    "register_defense",
    "make_localizer",
    "make_attack",
    "make_scenario",
    "make_defense",
    "available_localizers",
    "available_attacks",
    "available_scenarios",
    "available_defenses",
    "__version__",
]
