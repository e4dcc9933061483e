"""Declarative experiment specs and the online localization service facade.

This module is the programmatic entry point of the library.  It turns "train
X, attack it with Y, evaluate on Z" into *data*:

* :class:`ModelSpec` / :class:`ExperimentSpec` — a serializable description
  of an experiment (models, buildings, devices, attack scenarios, profile),
  round-trippable through ``to_dict``/``from_dict`` and JSON;
* :func:`run_experiment` — executes a spec, in-process or through queue
  workers, and returns a :class:`~repro.eval.runner.ResultSet`;
* :class:`LocalizationService` — the online-phase facade: ``fit`` once, then
  ``localize`` batches of fingerprints into coordinates plus an error
  estimate, and ``save``/``load`` the fitted model through
  :mod:`repro.nn.serialization`.

Models and attacks are referenced by their :mod:`repro.registry` names, so
anything registered with ``@LOCALIZERS.register`` / ``@ATTACKS.register`` is
immediately scriptable::

    spec = ExperimentSpec.from_dict({
        "profile": "quick",
        "models": ["CALLOC", {"name": "DNN", "params": {"epochs": 40}}],
        "buildings": ["Building 1"],
    })
    results = run_experiment(spec)
    print(results.error_summary())
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .data.fingerprint import FingerprintDataset, require_finite
from .defenses.base import Defense, DefenseSpec, GuardRejectedError
from .eval.robustness import ScenarioSpec
from .eval.runner import ResultSet
from .eval.scenarios import AttackScenario, EvaluationConfig
from .interfaces import ErrorSummary, Localizer
from .nn.serialization import load_state_dict, save_state_dict
from .registry import ATTACKS, LOCALIZERS

__all__ = [
    "PROFILES",
    "ModelSpec",
    "ExperimentSpec",
    "default_model_params",
    "model_params",
    "run_experiment",
    "LocalizationResult",
    "LocalizationService",
]

PathLike = Union[str, Path]

#: Evaluation-profile factories by name (see :class:`EvaluationConfig`).
PROFILES: Dict[str, Callable[[], EvaluationConfig]] = {
    "quick": EvaluationConfig.quick,
    "standard": EvaluationConfig.standard,
    "full": EvaluationConfig.full,
}


# ----------------------------------------------------------------------
# Profile-tuned model defaults
# ----------------------------------------------------------------------
def default_model_params(name: str, config: EvaluationConfig) -> Dict[str, Any]:
    """Profile-tuned constructor defaults for a registered localizer."""
    epochs = config.baseline_epochs
    seed = config.model_seed
    defaults: Dict[str, Dict[str, Any]] = {
        "CALLOC": {"epochs_per_lesson": config.epochs_per_lesson, "seed": seed},
        "AdvLoc": {"epochs": epochs, "seed": seed},
        "SANGRIA": {"pretrain_epochs": max(10, epochs // 3), "num_rounds": 10, "seed": seed},
        "ANVIL": {"epochs": epochs, "seed": seed},
        "WiDeep": {"pretrain_epochs": max(10, epochs // 3), "seed": seed},
        "DNN": {"epochs": epochs, "seed": seed},
        "CNN": {"epochs": epochs, "seed": seed},
    }
    return dict(defaults.get(LOCALIZERS.resolve(name), {}))


@dataclass(frozen=True)
class ModelSpec:
    """One model entry of an :class:`ExperimentSpec`.

    ``name`` is the registry name; ``params`` override the profile-tuned
    defaults; ``label`` is the name used in result records (defaults to
    ``name``), letting one registry entry appear twice under different
    settings (e.g. CALLOC vs its "NC" no-curriculum ablation).
    """

    name: str
    params: Mapping[str, Any] = field(default_factory=dict)
    label: Optional[str] = None

    @property
    def display_name(self) -> str:
        return self.label or self.name

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"name": self.name}
        if self.params:
            data["params"] = dict(self.params)
        if self.label:
            data["label"] = self.label
        return data

    @classmethod
    def from_dict(cls, data: Union[str, Mapping[str, Any]]) -> "ModelSpec":
        """Build from a mapping, or from a bare registry name."""
        if isinstance(data, str):
            return cls(name=data)
        if isinstance(data, ModelSpec):
            return data
        return cls(
            name=data["name"],
            params=dict(data.get("params", {})),
            label=data.get("label"),
        )


def model_params(spec: ModelSpec, config: EvaluationConfig) -> Dict[str, Any]:
    """``spec``'s constructor params: the profile defaults, then its overrides.

    The one place a spec's model is tuned to a profile: every
    :class:`~repro.eval.engine.ModelTask` an experiment or
    :meth:`LocalizationService.trained_on` trains is built from these.
    """
    params = default_model_params(spec.name, config)
    params.update(spec.params)
    return params


# ----------------------------------------------------------------------
# Experiment specification
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ExperimentSpec:
    """A declarative, serializable experiment description.

    ``None`` fields fall back to the profile's grid: ``buildings``/``devices``
    default to the :class:`EvaluationConfig` values, and the attack grid is
    either given explicitly via ``scenarios`` or expanded from the profile's
    ε/ø sweep restricted by ``attack_methods``/``epsilons``/``phi_percents``.

    ``robustness`` adds registered deployment scenarios (temporal drift, AP
    outages, rogue APs, unseen-device splits, adaptive black-box attackers —
    see :mod:`repro.eval.robustness`) on top of the attack grid; entries may
    be bare registry names, mappings, or :class:`ScenarioSpec` instances.
    Pass ``scenarios=()`` alongside it to evaluate robustness conditions
    without sweeping the crafted-attack grid.

    ``defenses`` selects registered hardening strategies (see
    :mod:`repro.defenses`): every model is trained and evaluated once per
    entry, so the result set becomes a defense × attack × scenario matrix
    (the ``"none"`` family is the undefended baseline row).  Entries may be
    bare registry names, mappings, or :class:`~repro.defenses.DefenseSpec`
    instances.

    Every component name — model, attack method, robustness scenario and
    defense — is validated against its registry at construction time, so a
    typo fails here with a did-you-mean error instead of deep inside an
    engine worker.
    """

    models: Tuple[ModelSpec, ...] = ()
    profile: str = "quick"
    buildings: Optional[Tuple[str, ...]] = None
    devices: Optional[Tuple[str, ...]] = None
    scenarios: Optional[Tuple[AttackScenario, ...]] = None
    attack_methods: Optional[Tuple[str, ...]] = None
    epsilons: Optional[Tuple[float, ...]] = None
    phi_percents: Optional[Tuple[float, ...]] = None
    robustness: Optional[Tuple[ScenarioSpec, ...]] = None
    defenses: Optional[Tuple[DefenseSpec, ...]] = None
    name: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "models", tuple(ModelSpec.from_dict(m) for m in self.models)
        )
        for attr in ("buildings", "devices", "attack_methods", "epsilons", "phi_percents"):
            value = getattr(self, attr)
            if value is not None:
                object.__setattr__(self, attr, tuple(value))
        if self.scenarios is not None:
            object.__setattr__(
                self,
                "scenarios",
                tuple(
                    s if isinstance(s, AttackScenario) else AttackScenario(**dict(s))
                    for s in self.scenarios
                ),
            )
        if self.robustness is not None:
            # ScenarioSpec.from_dict resolves each name against the scenario
            # registry, so unknown families already fail here.
            object.__setattr__(
                self,
                "robustness",
                tuple(ScenarioSpec.from_dict(s) for s in self.robustness),
            )
        if self.defenses is not None:
            # Likewise resolved against the defense registry on construction.
            object.__setattr__(
                self,
                "defenses",
                tuple(DefenseSpec.from_dict(d) for d in self.defenses),
            )
        if self.profile not in PROFILES:
            raise ValueError(
                f"unknown profile '{self.profile}'; expected one of {sorted(PROFILES)}"
            )
        # Fail fast on unknown component names: a spec that constructs is a
        # spec the engine can run.  RegistryError names the unknown key and
        # suggests close spellings.
        for model in self.models:
            LOCALIZERS.resolve(model.name)
        for method in self.attack_methods or ():
            ATTACKS.resolve(method)
        for scenario in self.scenarios or ():
            ATTACKS.resolve(scenario.method)

    # -- resolution -----------------------------------------------------
    def config(self) -> EvaluationConfig:
        """The :class:`EvaluationConfig` this spec's profile names."""
        return PROFILES[self.profile]()

    def resolve_model_tasks(self, config: EvaluationConfig) -> List["ModelTask"]:
        """The spec's models as engine :class:`~repro.eval.engine.ModelTask`\\ s.

        Each task carries the resolved registry name plus the fully-merged
        constructor params (:func:`model_params`) — everything the engine
        needs to build, train and cache-key the model.  When the spec
        declares ``defenses``, one task is emitted per (model, defense) pair;
        the ``"none"`` family maps to a defense-less task so its artefacts
        stay shared with plain undefended runs.
        """
        from .eval.engine import ModelTask

        if not self.models:
            raise ValueError("experiment spec declares no models")
        defenses: List[Optional[DefenseSpec]] = [None]
        if self.defenses is not None:
            if not self.defenses:
                raise ValueError("experiment spec declares an empty defense list")
            defenses = [
                None if spec.name == "none" else spec for spec in self.defenses
            ]
        tasks: List[ModelTask] = []
        seen = set()
        for model in self.models:
            for defense in defenses:
                key = (
                    model.display_name,
                    defense.display_name if defense is not None else "none",
                )
                if key in seen:
                    raise ValueError(
                        f"duplicate model label '{model.display_name}' "
                        f"(defense '{key[1]}') in experiment spec"
                    )
                seen.add(key)
                tasks.append(
                    ModelTask.create(
                        model.display_name,
                        model.name,
                        model_params(model, config),
                        defense=defense,
                    )
                )
        return tasks

    def resolve_scenarios(self, config: EvaluationConfig) -> List[AttackScenario]:
        """The attack grid: explicit scenarios, or the profile sweep."""
        if self.scenarios is not None:
            return list(self.scenarios)
        return config.scenarios(
            methods=self.attack_methods,
            epsilons=self.epsilons,
            phi_percents=self.phi_percents,
        )

    def resolve_robustness(self, config: EvaluationConfig) -> List[ScenarioSpec]:
        """The robustness scenarios this spec declares (empty by default)."""
        return list(self.robustness) if self.robustness is not None else []

    def resolve_plan(self, config: Optional[EvaluationConfig] = None) -> "ExecutionPlan":
        """The spec's full work-unit DAG (see :func:`repro.eval.engine.build_plan`).

        This is exactly the plan :func:`run_experiment` executes — used by
        ``repro run --dry-run`` to preview unit counts and by the campaign
        queue to persist a run ledger; every process that rebuilds the plan
        from the same spec derives the same units in the same order.
        """
        from .eval.engine import build_plan

        config = config or self.config()
        return build_plan(
            self.resolve_model_tasks(config),
            self.resolve_scenarios(config),
            self.buildings if self.buildings is not None else config.buildings,
            self.devices if self.devices is not None else config.devices,
            tuple(self.resolve_robustness(config)),
        )

    # -- serialization --------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "profile": self.profile,
            "models": [m.to_dict() for m in self.models],
        }
        if self.name:
            data["name"] = self.name
        for attr in ("buildings", "devices", "attack_methods", "epsilons", "phi_percents"):
            value = getattr(self, attr)
            if value is not None:
                data[attr] = list(value)
        if self.scenarios is not None:
            data["scenarios"] = [
                {
                    "method": s.method,
                    "epsilon": s.epsilon,
                    "phi_percent": s.phi_percent,
                    "variant": s.variant,
                    "seed": s.seed,
                }
                for s in self.scenarios
            ]
        if self.robustness is not None:
            data["robustness"] = [s.to_dict() for s in self.robustness]
        if self.defenses is not None:
            data["defenses"] = [d.to_dict() for d in self.defenses]
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentSpec":
        known = {
            "models",
            "profile",
            "buildings",
            "devices",
            "scenarios",
            "attack_methods",
            "epsilons",
            "phi_percents",
            "robustness",
            "defenses",
            "name",
        }
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown experiment spec fields {sorted(unknown)}; expected {sorted(known)}"
            )
        kwargs = {key: data[key] for key in known if key in data}
        return cls(**kwargs)

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        return cls.from_dict(json.loads(text))

    def save(self, path: PathLike) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json() + "\n")
        return path

    @classmethod
    def load(cls, path: PathLike) -> "ExperimentSpec":
        return cls.from_json(Path(path).read_text())


def run_experiment(
    spec: ExperimentSpec,
    config: Optional[EvaluationConfig] = None,
    jobs: int = 1,
    cache: object = None,
) -> ResultSet:
    """Execute a declarative experiment spec and return its results.

    ``jobs=1`` runs the spec's plan (:meth:`ExperimentSpec.resolve_plan`)
    in-process, under ``config`` when given and the spec's profile
    otherwise: every unit, in
    :meth:`~repro.eval.engine.ExecutionPlan.all_units` order, goes through
    :func:`~repro.eval.engine.execute_unit` with one
    :class:`~repro.eval.engine.UnitMemo` for the run, and
    :func:`~repro.eval.engine.plan_records` decodes the outcomes.
    ``jobs>1`` submits the spec to a run ledger under a fresh run id and
    drains it with that many spawned queue workers
    (:func:`repro.queue.work`); the ledger is removed afterwards, also on
    failure.  Workers rebuild the plan from the spec alone, so a
    ``config`` other than ``spec.config()`` is rejected there, and a script
    that passes ``jobs>1`` must call this under an
    ``if __name__ == "__main__":`` guard (spawned workers re-import the main
    module).

    ``cache`` enables the on-disk artefact cache (``True``, a directory
    path, or an :class:`~repro.eval.engine.ArtifactCache`).  With caching
    off, the workers of a ``jobs>1`` run share artefacts through a temporary
    cache that is deleted afterwards.  Results are bit-identical for every
    job count and cache state.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if jobs > 1:
        if config is not None and config != spec.config():
            raise ValueError(
                "jobs>1 runs every queue worker under the spec's own profile; "
                "pass config=None or run a custom config with jobs=1"
            )
        return _run_on_queue(spec, jobs, cache)
    # Imported here, not at the top: execute_unit is looked up per run, so a
    # patched or wrapped module global takes effect.
    from .eval.engine import ArtifactCache, UnitMemo, execute_unit, plan_records

    config = config or spec.config()
    plan = spec.resolve_plan(config)
    store, memo = ArtifactCache.coerce(cache), UnitMemo()
    return plan_records(
        plan, [execute_unit(unit, config, store, memo) for unit in plan.all_units()]
    )


def _run_on_queue(spec: ExperimentSpec, jobs: int, cache: object) -> ResultSet:
    """Drain ``spec`` with ``jobs`` queue workers over a throwaway run ledger."""
    import contextlib
    import shutil
    import tempfile
    import uuid

    from . import queue
    from .eval.engine import ArtifactCache

    with contextlib.ExitStack() as cleanup:
        store = ArtifactCache.coerce(cache)
        if store is None:
            store = ArtifactCache(
                cleanup.enter_context(tempfile.TemporaryDirectory(prefix="repro-jobs-"))
            )
        run_id = f"jobs-{uuid.uuid4().hex[:12]}"
        cleanup.callback(
            shutil.rmtree, queue.queue_root(store) / run_id, ignore_errors=True
        )
        ledger = queue.RunLedger.submit(spec, store, run_id=run_id)
        queue.work(store, run_id, workers=jobs)
        states = ledger.states()
        for entry in ledger.units:
            state = states[entry.id]
            if state.state == queue.STATE_DONE:
                continue
            message = (
                f"jobs={jobs} run stopped at unit {entry.id} ({entry.title}): "
                f"{state.state}"
            )
            if state.error:
                message += (
                    f" after {state.attempts} attempt(s), last error:\n{state.error}"
                )
            if state.state == queue.STATE_PENDING:
                message += (
                    "\nthe queue workers exited before running it; they are spawned "
                    "processes that re-import the main module, so a script that "
                    "passes jobs>1 must do so under `if __name__ == \"__main__\":`"
                )
            raise RuntimeError(message)
        return queue.collect_results(ledger)


# ----------------------------------------------------------------------
# Online-phase facade
# ----------------------------------------------------------------------
@dataclass
class LocalizationResult:
    """Batched online-phase output: one row per query fingerprint."""

    #: Predicted reference-point class per query, shape ``(n,)``.
    labels: np.ndarray
    #: Predicted coordinates in meters, shape ``(n, 2)``.
    coordinates: np.ndarray
    #: Expected localization error in meters (distance to the predicted
    #: point, weighted by the model's class probabilities); ``NaN`` when the
    #: model exposes no probabilities.
    error_estimate: np.ndarray
    #: Class probabilities, shape ``(n, num_classes)``, when available.
    probabilities: Optional[np.ndarray] = None
    #: Per-query adversarial flags from the service's inference guard
    #: (``None`` when no guard is attached), shape ``(n,)`` boolean.
    guard_flags: Optional[np.ndarray] = None
    #: Immutable store ref (``name@vN``) that produced this result.  Set by
    #: the serving gateway at scoring time so a concurrent ``store promote``
    #: can never tear a response (labels from one version, ref from another);
    #: ``None`` for direct service calls.
    served_ref: Optional[str] = None

    def __len__(self) -> int:
        return int(self.labels.shape[0])


class LocalizationService:
    """Facade for serving a localizer online: fit, localize batches, persist.

    Parameters
    ----------
    model:
        Registry name of the localizer (``"CALLOC"`` by default).
    params:
        Constructor overrides for the model.
    batch_size:
        Queries per prediction chunk; every request — single fingerprint or
        campaign-sized array — flows through the same batched code path.
    """

    def __init__(
        self,
        model: str = "CALLOC",
        params: Optional[Mapping[str, Any]] = None,
        batch_size: int = 512,
        _localizer: Optional[Localizer] = None,
    ) -> None:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.model_name = LOCALIZERS.resolve(model)
        self.params: Dict[str, Any] = dict(params or {})
        self.batch_size = batch_size
        # _localizer lets internal constructors (trained_on) inject an
        # already-fitted model instead of building a throwaway untrained one.
        self.localizer: Localizer = (
            _localizer
            if _localizer is not None
            else LOCALIZERS.create(self.model_name, **self.params)
        )
        self._rp_positions: Optional[np.ndarray] = None
        self._num_aps: Optional[int] = None
        #: Defense provenance: the hardening strategy the model was trained
        #: under ("none" for plain fits); recorded in ModelStore manifests.
        self.defense_name: str = "none"
        #: Optional fitted inference guard screening every localize batch.
        self.guard: Optional[Defense] = None
        self._guard_spec: Optional[DefenseSpec] = None

    # -- offline phase --------------------------------------------------
    @property
    def is_fitted(self) -> bool:
        return self._rp_positions is not None

    def fit(self, dataset: FingerprintDataset) -> "LocalizationService":
        """Train the underlying model on the offline fingerprint database."""
        self.localizer.fit(dataset)
        self._rp_positions = np.asarray(dataset.rp_positions, dtype=np.float64)
        self._num_aps = int(dataset.num_aps)
        return self

    @classmethod
    def trained_on(
        cls,
        building: str,
        model: str = "CALLOC",
        params: Optional[Mapping[str, Any]] = None,
        profile: str = "quick",
        config: Optional[EvaluationConfig] = None,
        cache: object = True,
        batch_size: int = 512,
        defense: Union[None, str, Mapping[str, Any], DefenseSpec] = None,
    ) -> "LocalizationService":
        """Fitted service for one paper building, trained as an experiment trains it.

        The model's params are :func:`model_params` of ``model`` and
        ``params`` under the profile, and campaign simulation and training go
        through the engine's :func:`~repro.eval.engine.simulate_campaign`
        and :func:`~repro.eval.engine.train_localizer` under the same cache
        keys as the units of :func:`run_experiment`.  So spinning up a
        service for a building that an experiment already visited is a pure
        cache load — no re-simulation, no re-training.  ``cache`` defaults
        to the shared on-disk cache (pass ``False`` to force a fresh fit).

        ``defense`` hardens the service (see :mod:`repro.defenses`):
        training-time defenses run inside the cached training unit, and
        defenses with an inference guard (e.g. ``"detector"``) are calibrated
        on the offline survey and attached, so the guard travels with the
        service into saves, the model store and the serving gateway.
        """
        from .eval.engine import ArtifactCache, ModelTask, simulate_campaign, train_localizer

        if config is None:
            if profile not in PROFILES:
                raise ValueError(
                    f"unknown profile '{profile}'; expected one of {sorted(PROFILES)}"
                )
            config = PROFILES[profile]()
        defense_spec = DefenseSpec.from_dict(defense) if defense is not None else None
        if defense_spec is not None and defense_spec.name == "none":
            defense_spec = None
        merged = model_params(ModelSpec(model, params or {}), config)
        task = ModelTask.create(model, model, merged, defense=defense_spec)
        artifact_cache = ArtifactCache.coerce(cache)
        campaign, campaign_digest = simulate_campaign(building, config, artifact_cache)
        localizer, _ = train_localizer(task, campaign, campaign_digest, artifact_cache)
        service = cls(
            model=model, params=merged, batch_size=batch_size, _localizer=localizer
        )
        service._rp_positions = np.asarray(
            campaign.train.rp_positions, dtype=np.float64
        )
        service._num_aps = int(campaign.train.num_aps)
        if defense_spec is not None:
            service.defense_name = defense_spec.display_name
            built = defense_spec.build()
            if built.guards_inference:
                # Guard calibration is deterministic in (campaign, spec), so
                # warm cache loads rebuild the exact same guard.
                built.fit_guard(campaign.train)
                service.attach_guard(built, spec=defense_spec)
        return service

    # -- inference guard -------------------------------------------------
    def attach_guard(
        self,
        guard: Union[str, Mapping[str, Any], DefenseSpec, Defense],
        dataset: Optional[FingerprintDataset] = None,
        spec: Optional[DefenseSpec] = None,
    ) -> "LocalizationService":
        """Attach an inference guard screening every :meth:`localize` batch.

        ``guard`` is a registered defense name / mapping / spec (built and
        calibrated on ``dataset``), or an already-fitted
        :class:`~repro.defenses.Defense` instance (``spec`` then records how
        to rebuild it; defaults to :meth:`~repro.defenses.Defense.spec`,
        which captures the instance's full configuration — including
        security-relevant knobs like the detector's ``action``).  The guard
        is persisted inside :meth:`state_arrays`, so saved archives and
        published store artifacts restore it automatically.
        """
        if isinstance(guard, Defense):
            defense = guard
            guard_spec = spec or defense.spec()
        else:
            guard_spec = DefenseSpec.from_dict(guard)
            defense = guard_spec.build()
        if not defense.guards_inference:
            raise TypeError(
                f"defense '{defense.name}' has no inference guard "
                "(guards_inference is False)"
            )
        if dataset is not None:
            defense.fit_guard(dataset)
        if not defense.guard_is_fitted:
            raise RuntimeError(
                f"guard '{defense.name}' is not fitted; pass a calibration "
                "dataset to attach_guard"
            )
        self.guard = defense
        self._guard_spec = guard_spec
        if self.defense_name == "none":
            self.defense_name = guard_spec.display_name
        return self

    # -- online phase ---------------------------------------------------
    def localize(
        self, batch: Union[FingerprintDataset, np.ndarray, Sequence[Sequence[float]]]
    ) -> LocalizationResult:
        """Predict coordinates (and an error estimate) for a batch of queries.

        ``batch`` is either a :class:`FingerprintDataset` or an array of
        normalised fingerprints, shape ``(n, num_aps)`` (a single fingerprint
        of shape ``(num_aps,)`` is promoted to a batch of one).  A batch of
        the wrong width, or with a NaN or infinite reading, raises
        :class:`ValueError` before any guard or model sees it.
        """
        if not self.is_fitted:
            raise RuntimeError("LocalizationService must be fitted (or loaded) first")
        if isinstance(batch, FingerprintDataset):
            features = batch.features
        else:
            features = np.asarray(batch, dtype=np.float64)
            if features.ndim == 1:
                features = features[None, :]
        if (
            features.shape[0]
            and self._num_aps is not None
            and features.shape[1] != self._num_aps
        ):
            raise ValueError(
                f"fingerprints have {features.shape[1]} APs but "
                f"'{self.model_name}' was fitted on {self._num_aps}"
            )
        require_finite(features)
        guard_flags: Optional[np.ndarray] = None
        if self.guard is not None:
            if features.shape[0] == 0:
                # Empty batches are valid requests (and carry no AP width to
                # screen); never hand them to the guard's scorer.
                guard_flags = np.zeros(0, dtype=bool)
            else:
                report = self.guard.guard(features)
                features = np.asarray(report.features, dtype=np.float64)
                guard_flags = np.asarray(report.flagged, dtype=bool)
                if self.guard.rejects and guard_flags.any():
                    raise GuardRejectedError(
                        self.guard.name, np.flatnonzero(guard_flags)
                    )
        predict_proba = getattr(self.localizer, "predict_proba", None)
        if not callable(predict_proba):
            predict_proba = None
        labels_parts: List[np.ndarray] = []
        proba_parts: List[np.ndarray] = []
        proba_missing = False
        for start in range(0, features.shape[0], self.batch_size):
            chunk = features[start : start + self.batch_size]
            proba = predict_proba(chunk) if predict_proba is not None else None
            if proba is None:
                # A model may expose predict_proba yet decline for some
                # chunks; probabilities are then dropped for the whole batch
                # rather than silently misaligning with the labels.
                proba_missing = True
                labels_parts.append(np.asarray(self.localizer.predict(chunk)))
            else:
                proba = np.asarray(proba, dtype=np.float64)
                proba_parts.append(proba)
                labels_parts.append(proba.argmax(axis=1))
        labels = (
            np.concatenate(labels_parts)
            if labels_parts
            else np.empty(0, dtype=np.int64)
        )
        probabilities = (
            np.concatenate(proba_parts) if proba_parts and not proba_missing else None
        )
        coordinates = self._rp_positions[labels]
        if probabilities is not None:
            # Expected distance from the predicted point under the class
            # distribution: 0 when fully confident, grows with ambiguity.
            deltas = coordinates[:, None, :] - self._rp_positions[None, :, :]
            distances = np.sqrt((deltas ** 2).sum(axis=2))
            error_estimate = (probabilities * distances).sum(axis=1)
        else:
            error_estimate = np.full(labels.shape[0], np.nan)
        return LocalizationResult(
            labels=labels,
            coordinates=coordinates,
            error_estimate=error_estimate,
            probabilities=probabilities,
            guard_flags=guard_flags,
        )

    def evaluate(self, dataset: FingerprintDataset) -> ErrorSummary:
        """Mean/worst-case error on a labelled dataset (one prediction pass)."""
        return self.localizer.error_summary(dataset)

    # -- persistence ----------------------------------------------------
    @property
    def supports_persistence(self) -> bool:
        """Whether the underlying localizer implements the state-array protocol."""
        return callable(getattr(self.localizer, "state_arrays", None)) and callable(
            getattr(self.localizer, "load_state_arrays", None)
        )

    def _validated_params(self) -> Dict[str, Any]:
        """The constructor params, guaranteed JSON-serializable.

        Failing here — before any array is written — turns an opaque
        ``json.dumps`` crash deep inside persistence into an error naming
        the offending key.
        """
        for key, value in self.params.items():
            try:
                json.dumps(value)
            except (TypeError, ValueError) as error:
                raise TypeError(
                    f"LocalizationService param '{key}' is not JSON-serializable "
                    f"({value!r}); persistence stores params as JSON metadata — "
                    f"use plain numbers/strings/lists ({error})"
                ) from error
        return dict(self.params)

    def state_arrays(self) -> Dict[str, np.ndarray]:
        """The fitted service as one flat named-array archive.

        This is the canonical serialized form shared by :meth:`save` (one
        ``.npz`` file) and :meth:`repro.serve.ModelStore.publish` (a
        content-addressed store artifact): a ``service/meta`` JSON cell,
        the reference-point coordinates, and the localizer's state arrays
        under a ``model/`` prefix.
        """
        if not self.is_fitted:
            raise RuntimeError("cannot save an unfitted LocalizationService")
        if not self.supports_persistence:
            raise TypeError(
                f"localizer '{self.model_name}' does not support persistence "
                "(missing state_arrays/load_state_arrays)"
            )
        meta = {
            "model": self.model_name,
            "params": self._validated_params(),
            "batch_size": self.batch_size,
            "num_aps": self._num_aps,
            "defense": self.defense_name,
        }
        if self.guard is not None and self._guard_spec is not None:
            meta["guard"] = self._guard_spec.to_dict()
        arrays: Dict[str, np.ndarray] = {"service/meta": np.array(json.dumps(meta))}
        arrays["service/rp_positions"] = self._rp_positions
        arrays.update(
            {f"model/{name}": value for name, value in self.localizer.state_arrays().items()}
        )
        if self.guard is not None:
            arrays.update(
                {
                    f"guard/{name}": value
                    for name, value in self.guard.guard_state_arrays().items()
                }
            )
        return arrays

    @classmethod
    def from_state_arrays(cls, arrays: Mapping[str, np.ndarray]) -> "LocalizationService":
        """Rebuild a fitted service from a :meth:`state_arrays` archive."""
        meta = json.loads(str(np.asarray(arrays["service/meta"]).item()))
        service = cls(
            model=meta["model"],
            params=meta["params"],
            batch_size=meta["batch_size"],
        )
        prefix = "model/"
        model_arrays = {
            name[len(prefix):]: value
            for name, value in arrays.items()
            if name.startswith(prefix)
        }
        service.localizer.load_state_arrays(model_arrays)
        service._rp_positions = np.asarray(
            arrays["service/rp_positions"], dtype=np.float64
        )
        num_aps = meta.get("num_aps")  # absent in pre-1.3 archives
        service._num_aps = int(num_aps) if num_aps is not None else None
        # Defense provenance and guard state (absent in pre-1.4 archives).
        service.defense_name = meta.get("defense", "none")
        guard_meta = meta.get("guard")
        if guard_meta is not None:
            guard_spec = DefenseSpec.from_dict(guard_meta)
            guard = guard_spec.build()
            prefix = "guard/"
            guard.load_guard_state(
                {
                    name[len(prefix):]: value
                    for name, value in arrays.items()
                    if name.startswith(prefix)
                }
            )
            service.guard = guard
            service._guard_spec = guard_spec
        return service

    def save(self, path: PathLike) -> Path:
        """Persist the fitted service as one ``.npz`` archive.

        Requires the underlying localizer to implement the state-array
        protocol (``state_arrays``/``load_state_arrays``), as CALLOC and KNN
        do.  For versioned, named deployment artifacts use
        :class:`repro.serve.ModelStore` instead; this remains the thin
        single-file path.
        """
        return save_state_dict(self.state_arrays(), path)

    @classmethod
    def load(cls, path: PathLike) -> "LocalizationService":
        """Rebuild a fitted service from a :meth:`save` archive."""
        return cls.from_state_arrays(load_state_dict(path))
