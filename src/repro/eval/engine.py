"""Cache-aware execution engine for the evaluation grid.

The paper's evaluation is one big product grid — models × buildings ×
devices × attack scenarios.  Walked with nested loops, it re-simulates
campaigns and retrains models at every operating point; this module
decomposes it into a flat DAG of *work units*:

``CampaignUnit``
    Simulate the fingerprint campaign of one building (no dependencies).
``TrainUnit``
    Train one model on one building's offline database
    (depends on that building's campaign).
``EvalUnit``
    Attack and score one trained model on one device's test set across a
    list of scenarios (depends on the corresponding train unit).
``ScenarioUnit``
    Evaluate one robustness scenario (drift, AP outage, rogue APs,
    unseen-device generalization, adaptive black-box attacker — see
    :mod:`repro.eval.robustness`) for one (model, building, device) cell.
    Scenarios that keep the standard training split depend on the train
    unit; scenarios that replace it (leave-one-device-out) depend only on
    the campaign and train their own model under a scenario-specific
    cache key.

One executor, :func:`execute_unit`, runs every unit, and two schedulers
call it: :func:`repro.api.run_experiment` walks a plan in-process in
:meth:`ExecutionPlan.all_units` order, and the workers of the campaign queue
(:mod:`repro.queue`) claim units from a run ledger; a ``jobs>1`` run is N
queue workers draining a throwaway ledger.  Each in-process run and each
queue worker owns one :class:`UnitMemo`, which keeps the campaigns, trained
models and surrogates its units share in memory for that run or worker
only.  Two properties make every way of running a plan agree:

* **Deterministic per-unit seeding** — every unit derives all of its
  randomness from seeds carried by its inputs (campaign seed, model seed,
  per-scenario attack seed), never from shared mutable RNG state.  A unit
  therefore computes bit-identical results whether it runs in-process, in a
  queue worker, or in a different order relative to its siblings.  ``jobs=1``
  and ``jobs=N`` produce byte-for-byte identical :class:`ResultSet` contents.
* **Content-addressed caching** — expensive intermediates are memoised on
  disk under a key derived from *everything that determines their value*:
  simulated campaigns by (building geometry, campaign config), trained
  localizers by (registry name, constructor params, building, campaign key)
  via :mod:`repro.nn.serialization` when the model supports the
  state-array protocol, and attacked fingerprint batches by
  (model key, device, scenario).  A warm rerun replays the whole grid from
  the cache and is bit-identical to the cold run that populated it.

The cache lives under ``~/.cache/repro`` by default; override with the
``REPRO_CACHE_DIR`` environment variable, the ``cache`` argument of the
Python entry points, or the ``--cache-dir`` / ``--no-cache`` CLI flags.
Cache keys include the package version, so upgrading the library invalidates
every cached artefact automatically.

Typical use goes through :func:`repro.api.run_experiment` or the CLI
(``repro run --jobs 4``); a plan can also be run unit by unit, which is
all ``run_experiment`` does at ``jobs=1``::

    from repro.api import ExperimentSpec
    from repro.eval.engine import ArtifactCache, UnitMemo, execute_unit, plan_records

    spec = ExperimentSpec(models=("CALLOC", "KNN"), profile="quick")
    config, cache, memo = spec.config(), ArtifactCache(), UnitMemo()
    plan = spec.resolve_plan(config)
    results = plan_records(
        plan, [execute_unit(unit, config, cache, memo) for unit in plan.all_units()]
    )
"""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import json
import os
import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..atomic import write_atomic
from ..attacks.base import Attack, GradientProvider, ThreatModel
from ..attacks.batched import craft_grid
from ..attacks.mitm import SignalSpoofingAttack, attack_dataset, replay_survey
from ..attacks.surrogate import SurrogateGradientModel
from ..data.campaign import CampaignConfig, LocalizationCampaign, collect_campaign
from ..data.fingerprint import FingerprintDataset, denormalize_rss
from ..data.floorplan import paper_building
from ..defenses.base import DefenseSpec
from ..interfaces import Localizer
from ..nn.serialization import load_state_dict, save_state_dict
from ..registry import ATTACKS, LOCALIZERS
from .metrics import ErrorStats, error_stats
from .robustness import ScenarioSpec
from .runner import EvaluationRecord, ResultSet
from .scenarios import AttackScenario, EvaluationConfig

__all__ = [
    "CACHE_DIR_ENV",
    "default_cache_dir",
    "cache_key",
    "ArtifactCache",
    "CacheStats",
    "ModelTask",
    "CampaignUnit",
    "TrainUnit",
    "EvalUnit",
    "ScenarioUnit",
    "PlanUnit",
    "ExecutionPlan",
    "build_plan",
    "simulate_campaign",
    "train_localizer",
    "evaluate_unit",
    "evaluate_scenario_unit",
    "unit_kind",
    "unit_payload",
    "unit_digest",
    "unit_id",
    "unit_title",
    "UnitMemo",
    "execute_unit",
    "plan_records",
]

#: Environment variable overriding the default on-disk cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_dir() -> Path:
    """Default cache root: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override).expanduser()
    return Path("~/.cache/repro").expanduser()


# ----------------------------------------------------------------------
# Content-addressed artefact cache
# ----------------------------------------------------------------------
def _canonical(value: Any) -> Any:
    """Reduce ``value`` to a JSON-stable structure for cache-key hashing."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _canonical(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, Mapping):
        return {str(key): _canonical(value[key]) for key in sorted(value)}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, Path):
        return str(value)
    return value


def cache_key(kind: str, payload: Any) -> str:
    """Content-addressed key: SHA-256 over the canonical JSON of ``payload``.

    The package version is mixed into every key so a library upgrade never
    serves artefacts computed by older code.
    """
    from .. import __version__

    document = json.dumps(
        {"kind": kind, "version": __version__, "payload": _canonical(payload)},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(document.encode("utf-8")).hexdigest()


def _mirror_cache_counter(outcome: str) -> None:
    """Mirror one cache outcome into the process-global metrics registry.

    The per-instance :class:`CacheStats` ints stay the exact source of truth
    (tests and reports compare them); the registry series aggregate across
    every cache instance of the process for ``repro obs`` and Prometheus.
    """
    from ..obs.metrics import REGISTRY

    REGISTRY.counter(
        "repro_cache_operations_total",
        "Artifact cache outcomes across every cache instance", ("outcome",)
    ).labels(outcome=outcome).inc()


@dataclass
class CacheStats:
    """Hit/miss/store counters of one :class:`ArtifactCache` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0

    def record_hit(self) -> None:
        self.hits += 1
        _mirror_cache_counter("hit")

    def record_miss(self) -> None:
        self.misses += 1
        _mirror_cache_counter("miss")

    def record_store(self) -> None:
        self.stores += 1
        _mirror_cache_counter("store")

    def as_dict(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "stores": self.stores}


class ArtifactCache:
    """On-disk content-addressed cache for expensive evaluation intermediates.

    Artefacts are stored under ``<root>/<kind>/<digest[:2]>/<digest>.<ext>``
    where ``digest`` is :func:`cache_key` over everything that determines the
    artefact's content.  Writes are atomic (temp file + ``os.replace``) so a
    crashed or concurrent run can never leave a truncated artefact behind —
    important because the queue workers of a run share the cache.

    Two storage formats are used:

    * ``.npz`` via :mod:`repro.nn.serialization` for pure-array payloads
      (model state arrays, attacked fingerprint batches);
    * ``.pkl`` for structured objects (simulated campaigns, localizers that
      do not implement the state-array protocol).
    """

    def __init__(self, root: Optional[Union[str, Path]] = None) -> None:
        self.root = Path(root).expanduser() if root is not None else default_cache_dir()
        self.stats = CacheStats()

    # -- construction ---------------------------------------------------
    @classmethod
    def coerce(
        cls, value: Union[None, bool, str, Path, "ArtifactCache"]
    ) -> Optional["ArtifactCache"]:
        """Normalise the ``cache`` argument accepted by every entry point.

        ``None``/``False`` disable caching, ``True`` enables it at the
        default root, a path enables it at that root, and an existing
        :class:`ArtifactCache` is passed through unchanged.
        """
        if value is None or value is False:
            return None
        if value is True:
            return cls()
        if isinstance(value, ArtifactCache):
            return value
        return cls(value)

    # -- paths ----------------------------------------------------------
    def path_for(self, kind: str, digest: str, extension: str) -> Path:
        return self.root / kind / digest[:2] / f"{digest}.{extension}"

    def _read_or_discard(self, path: Path, loader) -> Optional[Any]:
        """Load one artefact file, treating an unreadable one as absent.

        Writes are atomic, so the cache itself never produces truncated
        files — but a shared cache directory can still accumulate corrupt
        artefacts from the outside (a partial rsync between hosts, disk
        errors, a SIGKILLed foreign writer without the atomic discipline).
        Serving such a file as a hit would crash every run that touches it
        forever; deleting it turns the damage into a one-time recompute.
        """
        if not path.exists():
            return None
        try:
            return loader(path)
        except Exception:
            try:
                path.unlink()
            except OSError:  # pragma: no cover - racing unlink is fine
                pass
            return None

    # -- pickle payloads ------------------------------------------------
    @staticmethod
    def _load_pickle(path: Path) -> Any:
        with path.open("rb") as stream:
            return pickle.load(stream)

    def get_pickle(self, kind: str, digest: str) -> Optional[Any]:
        value = self._read_or_discard(
            self.path_for(kind, digest, "pkl"), self._load_pickle
        )
        if value is None:
            self.stats.record_miss()
            return None
        self.stats.record_hit()
        return value

    def put_pickle(self, kind: str, digest: str, value: Any) -> None:
        def writer(temp_path: Path) -> None:
            with temp_path.open("wb") as stream:
                pickle.dump(value, stream, protocol=pickle.HIGHEST_PROTOCOL)

        write_atomic(self.path_for(kind, digest, "pkl"), writer)
        self.stats.record_store()

    # -- array payloads (via repro.nn.serialization) --------------------
    def get_arrays(self, kind: str, digest: str) -> Optional[Dict[str, np.ndarray]]:
        arrays = self._read_or_discard(
            self.path_for(kind, digest, "npz"), load_state_dict
        )
        if arrays is None:
            self.stats.record_miss()
            return None
        self.stats.record_hit()
        return arrays

    def get_either(
        self, kind: str, digest: str
    ) -> Optional[Tuple[str, Any]]:
        """Look one digest up across both storage formats (single hit/miss).

        Returns ``("arrays", dict)`` or ``("pickle", object)``, or ``None`` —
        used for artefacts whose format depends on the payload's capabilities
        (trained models: state-arrays when supported, pickle otherwise).
        A corrupt file under either format is discarded and the lookup falls
        through, so a damaged ``.npz`` can still be healed by a valid ``.pkl``
        sibling (and vice versa a recompute).
        """
        arrays = self._read_or_discard(
            self.path_for(kind, digest, "npz"), load_state_dict
        )
        if arrays is not None:
            self.stats.record_hit()
            return ("arrays", arrays)
        value = self._read_or_discard(
            self.path_for(kind, digest, "pkl"), self._load_pickle
        )
        if value is not None:
            self.stats.record_hit()
            return ("pickle", value)
        self.stats.record_miss()
        return None

    def export(self, kind: str, digest: str, destination: Union[str, Path]) -> Path:
        """Copy one stored artefact out of the cache to ``destination``.

        The export hook for downstream artifact registries (e.g.
        :class:`repro.serve.ModelStore`): a cached/stored ``.npz`` or ``.pkl``
        payload becomes a standalone file without a deserialize/reserialize
        round-trip.  Raises :class:`FileNotFoundError` when the digest is not
        stored under either format.
        """
        destination = Path(destination).expanduser()
        for extension in ("npz", "pkl"):
            source = self.path_for(kind, digest, extension)
            if not source.exists():
                continue
            if destination.suffix != f".{extension}":
                destination = destination.with_name(destination.name + f".{extension}")

            def writer(temp_path: Path) -> None:
                temp_path.write_bytes(source.read_bytes())

            write_atomic(destination, writer)
            return destination
        raise FileNotFoundError(
            f"no '{kind}' artefact {digest[:12]}… under {self.root}"
        )

    def put_arrays(self, kind: str, digest: str, arrays: Dict[str, np.ndarray]) -> None:
        def writer(temp_path: Path) -> Path:
            # save_state_dict appends .npz when the suffix is missing; hand it
            # a name that already carries it so the temp path stays stable.
            return save_state_dict(arrays, temp_path.with_suffix(".npz"))

        write_atomic(self.path_for(kind, digest, "npz"), writer)
        self.stats.record_store()

    def __repr__(self) -> str:
        return f"ArtifactCache(root={str(self.root)!r})"


# ----------------------------------------------------------------------
# Work units
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ModelTask:
    """One model to train and evaluate: resolved registry name plus params.

    ``label`` is the display name used in result records (it may differ from
    ``name`` when one registry entry appears twice under different settings,
    e.g. CALLOC vs its no-curriculum ablation).  ``defense`` selects the
    hardening strategy the training unit applies
    (:meth:`~repro.defenses.Defense.wrap_training` instead of a plain
    ``fit``); ``None`` is the undefended path, whose cache artefacts are
    shared with defense-less runs bit for bit.
    """

    label: str
    name: str
    params: Tuple[Tuple[str, Any], ...] = ()
    defense: Optional[DefenseSpec] = None

    @classmethod
    def create(
        cls,
        label: str,
        name: str,
        params: Mapping[str, Any],
        defense: Union[None, str, Mapping[str, Any], DefenseSpec] = None,
    ) -> "ModelTask":
        return cls(
            label=label,
            name=LOCALIZERS.resolve(name),
            params=tuple(sorted(params.items())),
            defense=DefenseSpec.from_dict(defense) if defense is not None else None,
        )

    @property
    def param_dict(self) -> Dict[str, Any]:
        return dict(self.params)

    @property
    def defense_label(self) -> str:
        """The defense name recorded in result rows (``"none"`` when undefended)."""
        return self.defense.display_name if self.defense is not None else "none"

    @property
    def key(self) -> Tuple[str, str]:
        """Identity of this task within a plan: (model label, defense label)."""
        return (self.label, self.defense_label)

    def build(self) -> Localizer:
        """Instantiate a fresh, untrained localizer for this task."""
        return LOCALIZERS.create(self.name, **self.param_dict)


@dataclass(frozen=True)
class CampaignUnit:
    """Simulate the fingerprint campaign of one building."""

    building: str


@dataclass(frozen=True)
class TrainUnit:
    """Train one model on one building's offline database."""

    task: ModelTask
    building: str


@dataclass(frozen=True)
class EvalUnit:
    """Attack and score one trained model on one device's test set."""

    task: ModelTask
    building: str
    device: str
    scenarios: Tuple[AttackScenario, ...]


@dataclass(frozen=True)
class ScenarioUnit:
    """Evaluate one robustness scenario for one (model, building, device) cell."""

    task: ModelTask
    building: str
    device: str
    spec: ScenarioSpec


#: Any work unit a plan can contain.
PlanUnit = Union[CampaignUnit, TrainUnit, EvalUnit, ScenarioUnit]


@dataclass
class ExecutionPlan:
    """The flat DAG of an experiment: every unit, dependency-ordered.

    ``eval_units`` are ordered model → building → device (scenarios inside
    each unit keep the grid order), which is exactly the order nested serial
    loops over the grid emit records in; stitching unit results back together
    in this order keeps queue-drained output byte-identical to the serial path.
    ``scenario_units`` follow in model → building → device → scenario order.
    """

    campaign_units: Tuple[CampaignUnit, ...]
    train_units: Tuple[TrainUnit, ...]
    eval_units: Tuple[EvalUnit, ...]
    scenario_units: Tuple[ScenarioUnit, ...] = ()

    @property
    def num_units(self) -> int:
        return (
            len(self.campaign_units)
            + len(self.train_units)
            + len(self.eval_units)
            + len(self.scenario_units)
        )

    def describe(self) -> str:
        return (
            f"{len(self.campaign_units)} campaign / {len(self.train_units)} train / "
            f"{len(self.eval_units)} eval / {len(self.scenario_units)} scenario units"
        )

    def stage_counts(self) -> Dict[str, int]:
        """Unit count per stage, in dependency order (for previews/ledgers)."""
        return {
            "campaign": len(self.campaign_units),
            "train": len(self.train_units),
            "eval": len(self.eval_units),
            "scenario": len(self.scenario_units),
        }

    def all_units(self) -> List["PlanUnit"]:
        """Every unit in canonical (stage-major, grid) order."""
        return [
            *self.campaign_units,
            *self.train_units,
            *self.eval_units,
            *self.scenario_units,
        ]


def build_plan(
    tasks: Sequence[ModelTask],
    scenarios: Sequence[AttackScenario],
    buildings: Sequence[str],
    devices: Sequence[str],
    robustness: Sequence[ScenarioSpec] = (),
) -> ExecutionPlan:
    """Decompose an experiment grid into its work-unit DAG."""
    if not tasks:
        raise ValueError("execution plan needs at least one model task")
    keys = [task.key for task in tasks]
    duplicates = sorted({key for key in keys if keys.count(key) > 1})
    if duplicates:
        # (label, defense) keys the result-stitching maps; duplicates would
        # silently score every duplicate against the last-trained model.
        raise ValueError(f"duplicate model task labels {duplicates}")
    displays = [spec.display_name for spec in robustness]
    duplicate_specs = sorted({d for d in displays if displays.count(d) > 1})
    if duplicate_specs:
        raise ValueError(
            f"duplicate robustness scenario labels {duplicate_specs}; "
            "give repeated families distinct 'label's"
        )
    scenario_tuple = tuple(scenarios)
    campaign_units = tuple(CampaignUnit(building) for building in buildings)
    train_units = tuple(
        TrainUnit(task, building) for task in tasks for building in buildings
    )
    # A scenario-only experiment (attack grid ()) produces no eval records;
    # emitting the units anyway would ship every trained model to a worker
    # just to loop over zero scenarios.
    eval_units = tuple(
        EvalUnit(task, building, device, scenario_tuple)
        for task in tasks
        for building in buildings
        for device in devices
    ) if scenario_tuple else ()
    scenario_units = tuple(
        ScenarioUnit(task, building, device, spec)
        for task in tasks
        for building in buildings
        for device in devices
        for spec in robustness
    )
    return ExecutionPlan(campaign_units, train_units, eval_units, scenario_units)


# ----------------------------------------------------------------------
# Unit execution (pure functions; run in-process or in queue workers)
# ----------------------------------------------------------------------
def _campaign_payload(building: str, config: EvaluationConfig) -> Dict[str, Any]:
    return {
        "building": building,
        "rp_granularity_m": config.rp_granularity_m,
        "campaign": CampaignConfig(seed=config.campaign_seed),
    }


def simulate_campaign(
    building: str,
    config: EvaluationConfig,
    cache: Optional[ArtifactCache] = None,
) -> Tuple[LocalizationCampaign, str]:
    """Simulate (or load from cache) one building's campaign.

    Returns the campaign together with its cache digest, which downstream
    keys (trained models, attacked batches) embed so that a different
    campaign configuration can never alias their artefacts.
    """
    digest = cache_key("campaign", _campaign_payload(building, config))
    if cache is not None:
        cached = cache.get_pickle("campaign", digest)
        if cached is not None:
            return cached, digest
    campaign = collect_campaign(
        paper_building(building, rp_granularity_m=config.rp_granularity_m),
        CampaignConfig(seed=config.campaign_seed),
    )
    if cache is not None:
        cache.put_pickle("campaign", digest, campaign)
    return campaign, digest


def _explicit_params(name: str, params: Mapping[str, Any]) -> Dict[str, Any]:
    """``params`` without the entries that restate a constructor default.

    Spelling a default out (the ablation's ``{"adaptive": True}`` for CALLOC)
    builds the same model, so it must not key a second, bit-identical
    artefact.  Only a value of the default's own type that compares equal as
    a plain ``bool`` (not an elementwise array) counts as restating it.
    """
    signature = inspect.signature(LOCALIZERS.get(name))
    defaults = {
        parameter.name: parameter.default
        for parameter in signature.parameters.values()
        if parameter.default is not inspect.Parameter.empty
    }
    return {
        key: value
        for key, value in params.items()
        if not (
            key in defaults
            and type(value) is type(defaults[key])
            and (value == defaults[key]) is True
        )
    }


def _model_payload(task: ModelTask, campaign_digest: str) -> Dict[str, Any]:
    payload = {
        "model": task.name,
        "params": _explicit_params(task.name, task.param_dict),
        "campaign": campaign_digest,
    }
    # Only defenses that actually change training extend the payload:
    # undefended digests stay unchanged, and inference-only defenses (the
    # detector) keep sharing the plain model's artefact instead of forcing a
    # bit-identical retrain under a different key.
    if task.defense is not None and task.defense.hardens_training:
        payload["defense"] = task.defense
    return payload


def _supports_state_arrays(model: Localizer) -> bool:
    return callable(getattr(model, "state_arrays", None)) and callable(
        getattr(model, "load_state_arrays", None)
    )


def train_localizer(
    task: ModelTask,
    campaign: LocalizationCampaign,
    campaign_digest: str,
    cache: Optional[ArtifactCache] = None,
    train_dataset: Optional[FingerprintDataset] = None,
    variant: Optional[Mapping[str, Any]] = None,
) -> Tuple[Localizer, str]:
    """Train (or load from cache) one model on one building's database.

    Models implementing the state-array protocol (``state_arrays`` /
    ``load_state_arrays``, as CALLOC and KNN do) are persisted as ``.npz``
    archives through :mod:`repro.nn.serialization`; everything else falls
    back to a pickle of the fitted localizer.

    ``train_dataset`` substitutes the offline split the model is fitted on
    (robustness scenarios such as leave-one-device-out use this); whenever it
    is given, ``variant`` must carry a canonicalisable description that
    uniquely determines the substitute split, so the scenario-specific model
    can never alias the standard one in the cache.

    Tasks carrying a :class:`~repro.defenses.DefenseSpec` are trained through
    the defense's :meth:`~repro.defenses.Defense.wrap_training` hook instead
    of a plain ``fit``; the spec is part of the cache key, so a hardened
    model can never alias its undefended sibling.  All defense randomness is
    derived from the spec's seed, keeping defended units bit-identical across
    job counts and cache states.
    """
    if (train_dataset is None) != (variant is None):
        raise ValueError("train_dataset and variant must be given together")
    payload = _model_payload(task, campaign_digest)
    if variant is not None:
        payload["variant"] = variant
    digest = cache_key("model", payload)
    if cache is not None:
        cached = cache.get_either("model", digest)
        if cached is not None:
            form, payload = cached
            if form == "arrays":
                model = task.build()
                model.load_state_arrays(payload)
                return model, digest
            return payload, digest
    model = task.build()
    train = campaign.train if train_dataset is None else train_dataset
    if task.defense is not None and task.defense.hardens_training:
        model = task.defense.build().wrap_training(model, train)
    else:
        # Undefended, or an inference-only defense whose wrap_training is a
        # plain fit — matching the digest sharing in _model_payload.
        model.fit(train)
    if cache is not None:
        if _supports_state_arrays(model):
            cache.put_arrays("model", digest, model.state_arrays())
        else:
            cache.put_pickle("model", digest, model)
    return model, digest


def _fit_surrogate(
    model: Localizer, campaign: LocalizationCampaign, config: EvaluationConfig
) -> SurrogateGradientModel:
    """Fit the surrogate-gradient imitation of a non-differentiable victim.

    Fully determined by (victim predictions on the training set, model seed),
    so independent re-fits — e.g. one per queue worker — are bit-identical
    to the single shared surrogate of the serial path.
    """
    train = campaign.train
    surrogate = SurrogateGradientModel(
        num_aps=train.num_aps,
        num_classes=train.num_classes,
        epochs=80,
        seed=config.model_seed,
    )
    surrogate.fit(train.features, model.predict(train.features))
    return surrogate


class UnitMemo:
    """The campaigns, trained models and surrogates the units of one run share.

    Every entry is keyed by its artefact digest: campaigns by campaign
    digest, models by model digest (registry name, explicit params, training
    defense, campaign) and surrogates by model digest plus surrogate seed.
    Two labels that build the same model therefore share one fit, and a memo
    that serves two runs never hands one run's model to the other.

    :func:`repro.api.run_experiment` creates one per in-process run and
    every queue worker one for its lifetime; both pass it to each
    :func:`execute_unit` call, so nothing memoised outlives the run or
    worker that built it.  A memoised
    model carries live training state, so one memo serves one thread.
    """

    def __init__(self) -> None:
        self.campaigns: Dict[str, LocalizationCampaign] = {}
        self.models: Dict[str, Tuple[Localizer, str]] = {}
        self.surrogates: Dict[str, SurrogateGradientModel] = {}

    def campaign(
        self, building: str, config: EvaluationConfig, cache: Optional[ArtifactCache]
    ) -> Tuple[LocalizationCampaign, str]:
        """One building's campaign and its digest, built once per memo."""
        digest = cache_key("campaign", _campaign_payload(building, config))
        campaign = self.campaigns.get(digest)
        if campaign is None:
            campaign, _ = simulate_campaign(building, config, cache)
            self.campaigns[digest] = campaign
        return campaign, digest

    def localizer(
        self,
        task: ModelTask,
        campaign: LocalizationCampaign,
        campaign_digest: str,
        cache: Optional[ArtifactCache],
    ) -> Tuple[Localizer, str]:
        """One task's trained model and its digest, trained or loaded once."""
        digest = cache_key("model", _model_payload(task, campaign_digest))
        hit = self.models.get(digest)
        if hit is None:
            hit = train_localizer(task, campaign, campaign_digest, cache)
            self.models[digest] = hit
        return hit

    def victim(
        self,
        model: Localizer,
        model_digest: str,
        campaign: LocalizationCampaign,
        config: EvaluationConfig,
        force_surrogate: bool = False,
    ) -> GradientProvider:
        """Gradient access to ``model``: native white-box, or a memoised surrogate.

        ``force_surrogate`` models the black-box attacker that must transfer
        perturbations through a surrogate even against differentiable victims.
        """
        if not force_surrogate and hasattr(model, "loss_gradient"):
            return model  # type: ignore[return-value]
        key = f"{model_digest}:{config.model_seed}"
        surrogate = self.surrogates.get(key)
        if surrogate is None:
            surrogate = _fit_surrogate(model, campaign, config)
            self.surrogates[key] = surrogate
        return surrogate


def _build_attack(scenario: AttackScenario, campaign: LocalizationCampaign) -> Attack:
    """The attack of one operating point, as the engine crafts it.

    The spoofer's counterfeit baseline is its own offline survey of the
    building — a property of the campaign, never of the batch a unit happens
    to score (which would make results depend on engine sharding).
    """
    attack = ATTACKS.create(
        scenario.method,
        ThreatModel(
            epsilon=scenario.epsilon,
            phi_percent=scenario.phi_percent,
            seed=scenario.seed,
        ),
    )
    if isinstance(attack, SignalSpoofingAttack) and attack.replay_features is None:
        attack.replay_features = replay_survey(campaign.train)
    return attack


def evaluate_unit(
    unit: EvalUnit,
    model: Localizer,
    model_digest: str,
    campaign: LocalizationCampaign,
    config: EvaluationConfig,
    cache: Optional[ArtifactCache],
    memo: UnitMemo,
) -> List[ErrorStats]:
    """Score one (model, building, device) cell across its scenarios.

    A non-differentiable victim is attacked through its surrogate in
    ``memo``: one fit serves every unit of the run or worker that attacks
    the same model.
    """
    test = campaign.test_for(unit.device)
    victim: Optional[GradientProvider] = None

    # Group the unit's attacked scenarios by crafting method and craft each
    # group in one batched pass (see attacks.batched): the ε × ø grid of one
    # method shares every victim gradient call instead of repeating it per
    # point.  The crafted grid is cached as ONE artefact keyed by the *full*
    # scenario group, so batch composition can never depend on which
    # artefacts happen to be cached — results stay independent of cache
    # state and engine sharding.
    groups: Dict[str, List[int]] = {}
    for position, scenario in enumerate(unit.scenarios):
        if not scenario.is_clean:
            groups.setdefault(scenario.method, []).append(position)

    attacked_by_position: Dict[int, FingerprintDataset] = {}
    for method, positions in groups.items():
        group_scenarios = [unit.scenarios[position] for position in positions]
        # model_seed seeds the surrogate used against non-differentiable
        # victims, so it co-determines the perturbation and must be part
        # of the key (for native white-box victims it is simply inert).
        digest = cache_key(
            "attacked",
            {
                "model": model_digest,
                "device": unit.device,
                "scenarios": tuple(group_scenarios),
                "surrogate_seed": config.model_seed,
            },
        )
        arrays = cache.get_arrays("attacked", digest) if cache is not None else None
        if arrays is None:
            if victim is None:
                victim = memo.victim(model, model_digest, campaign, config)
            attacks = [_build_attack(scenario, campaign) for scenario in group_scenarios]
            crafted = craft_grid(attacks, test.features, test.labels, victim)
            arrays = {
                f"rss_dbm_{index}": denormalize_rss(adversarial)
                for index, adversarial in enumerate(crafted)
            }
            if cache is not None:
                cache.put_arrays("attacked", digest, arrays)
        for index, position in enumerate(positions):
            attacked_by_position[position] = test.with_rss(arrays[f"rss_dbm_{index}"])

    results: List[ErrorStats] = []
    for position, scenario in enumerate(unit.scenarios):
        attacked = test if scenario.is_clean else attacked_by_position[position]
        results.append(error_stats(model.evaluate(attacked)))
    return results


def evaluate_scenario_unit(
    unit: ScenarioUnit,
    model: Optional[Localizer],
    model_digest: Optional[str],
    campaign: LocalizationCampaign,
    campaign_digest: str,
    config: EvaluationConfig,
    cache: Optional[ArtifactCache],
    memo: UnitMemo,
) -> Tuple[ErrorStats, AttackScenario]:
    """Score one robustness-scenario cell; returns its stats and attack point.

    ``model`` is the standard trained model for scenarios that keep the
    standard offline split; pass ``None`` for scenarios that replace it
    (``trains_standard_model = False``) — the scenario-specific model is then
    trained (or loaded) here under a cache key that embeds the scenario spec
    and device, so it can never alias the standard model's artefact.

    All scenario randomness is drawn from the spec's seed via
    :func:`~repro.eval.robustness.stable_seed`, so the unit computes
    bit-identical results in any process and at any job count.
    """
    scenario = unit.spec.build()
    if model is None or model_digest is None:
        model, model_digest = train_localizer(
            unit.task,
            campaign,
            campaign_digest,
            cache,
            train_dataset=scenario.train_dataset(campaign, unit.device),
            variant={"scenario": unit.spec, "device": unit.device},
        )
    test = campaign.test_for(unit.device)
    attack_scenario = scenario.attack_scenario()
    clean_point = AttackScenario(epsilon=0.0, phi_percent=0.0)
    attacked_point = (
        attack_scenario if attack_scenario is not None else clean_point
    )
    # Identity transforms with no attack have nothing worth caching: the
    # campaign already provides the unmodified test split for free.
    use_cache = cache is not None and (
        scenario.transforms_test or not attacked_point.is_clean
    )
    digest: Optional[str] = None
    if use_cache:
        payload: Dict[str, Any] = {
            "campaign": campaign_digest,
            "device": unit.device,
            "spec": unit.spec,
        }
        if not attacked_point.is_clean:
            # The perturbation depends on the victim (and, through the
            # surrogate seed, on the transfer model); purely environmental
            # transforms don't.
            payload["model"] = model_digest
            payload["surrogate_seed"] = config.model_seed
        digest = cache_key("scenario-batch", payload)
    arrays = cache.get_arrays("scenario-batch", digest) if use_cache else None
    if arrays is not None:
        final = test.with_rss(arrays["rss_dbm"])
    else:
        final = (
            scenario.transform_test(test, campaign, unit.device)
            if scenario.transforms_test
            else test
        )
        if not attacked_point.is_clean:
            victim = memo.victim(
                model,
                model_digest,
                campaign,
                config,
                force_surrogate=scenario.force_surrogate,
            )
            final = attack_dataset(
                final, _build_attack(attacked_point, campaign), victim
            )
        if use_cache:
            cache.put_arrays("scenario-batch", digest, {"rss_dbm": final.rss_dbm})
    return error_stats(model.evaluate(final)), attacked_point


# ----------------------------------------------------------------------
# Unit identity and execution
# ----------------------------------------------------------------------
def unit_kind(unit: PlanUnit) -> str:
    """The stage name of one plan unit: campaign/train/eval/scenario."""
    if isinstance(unit, CampaignUnit):
        return "campaign"
    if isinstance(unit, TrainUnit):
        return "train"
    if isinstance(unit, EvalUnit):
        return "eval"
    if isinstance(unit, ScenarioUnit):
        return "scenario"
    raise TypeError(f"not a plan unit: {unit!r}")


def unit_payload(unit: PlanUnit, config: EvaluationConfig) -> Dict[str, Any]:
    """Canonicalisable description of *everything that determines* a unit.

    Two units have equal payloads exactly when they compute the same thing:
    the campaign configuration is embedded everywhere (it determines every
    downstream artefact), and eval/scenario payloads carry the surrogate
    seed because it co-determines perturbations against non-differentiable
    victims.  The queue ledger digests this payload to give units stable,
    content-addressed identities across processes and hosts.
    """
    campaign = _campaign_payload(unit.building, config)
    if isinstance(unit, CampaignUnit):
        return campaign
    if isinstance(unit, TrainUnit):
        return {"campaign": campaign, "task": unit.task}
    if isinstance(unit, EvalUnit):
        return {
            "campaign": campaign,
            "task": unit.task,
            "device": unit.device,
            "scenarios": unit.scenarios,
            "surrogate_seed": config.model_seed,
        }
    if isinstance(unit, ScenarioUnit):
        return {
            "campaign": campaign,
            "task": unit.task,
            "device": unit.device,
            "spec": unit.spec,
            "surrogate_seed": config.model_seed,
        }
    raise TypeError(f"not a plan unit: {unit!r}")


def unit_digest(unit: PlanUnit, config: EvaluationConfig) -> str:
    """Content digest of one plan unit (see :func:`unit_payload`)."""
    return cache_key(
        "queue-unit", {"kind": unit_kind(unit), "payload": unit_payload(unit, config)}
    )


def unit_id(unit: PlanUnit, config: EvaluationConfig) -> str:
    """Stable unit identifier: ``<kind>-<digest prefix>``.

    Identical across processes, hosts and resubmissions of the same spec
    under the same package version — the key the queue ledger files unit
    state, leases and results under.
    """
    return f"{unit_kind(unit)}-{unit_digest(unit, config)[:12]}"


def unit_title(unit: PlanUnit) -> str:
    """Short human-readable description of one plan unit."""
    if isinstance(unit, CampaignUnit):
        return f"campaign {unit.building}"
    if isinstance(unit, TrainUnit):
        return f"train {unit.task.label}/{unit.task.defense_label} @ {unit.building}"
    if isinstance(unit, EvalUnit):
        return (
            f"eval {unit.task.label}/{unit.task.defense_label} @ {unit.building} "
            f"/ {unit.device} ({len(unit.scenarios)} attack points)"
        )
    if isinstance(unit, ScenarioUnit):
        return (
            f"scenario {unit.spec.display_name}: {unit.task.label}/"
            f"{unit.task.defense_label} @ {unit.building} / {unit.device}"
        )
    raise TypeError(f"not a plan unit: {unit!r}")


class _unit_span:
    """``engine.unit`` span around one executed plan unit.

    Captures the cache instance's hit/miss counters on entry and stamps the
    delta on exit, so every unit span carries its own cache attribution
    (``cache_hits``/``cache_misses`` match exactly what the unit's
    :class:`ArtifactCache` recorded while it ran).  Zero-cost while
    telemetry is disabled (no ids computed, no clock reads).  Sequential
    use only: :func:`execute_unit` opens one around each unit it runs, and
    the delta is exact while no other thread uses the same cache instance.
    """

    __slots__ = ("_inner", "_stats", "_before", "_live")

    def __init__(
        self,
        unit: PlanUnit,
        config: EvaluationConfig,
        cache: Optional[ArtifactCache],
    ) -> None:
        from ..obs import trace

        if not trace.telemetry_enabled():
            self._inner = None
            return
        self._inner = trace.span(
            "engine.unit",
            kind=unit_kind(unit),
            unit_id=unit_id(unit, config),
            title=unit_title(unit),
        )
        self._stats = cache.stats if cache is not None else None
        self._before = (
            (self._stats.hits, self._stats.misses)
            if self._stats is not None
            else (0, 0)
        )

    def __enter__(self):
        if self._inner is None:
            self._live = None
        else:
            self._live = self._inner.__enter__()
        return self._live

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._inner is None:
            return
        if self._stats is not None and self._live is not None:
            hits, misses = self._before
            self._live.set(
                cache_hits=self._stats.hits - hits,
                cache_misses=self._stats.misses - misses,
            )
        self._inner.__exit__(exc_type, exc, tb)


def execute_unit(
    unit: PlanUnit,
    config: EvaluationConfig,
    cache: Optional[ArtifactCache],
    memo: UnitMemo,
) -> Dict[str, Any]:
    """Execute one plan unit and return its JSON-ready outcome document.

    The one unit executor: :func:`repro.api.run_experiment` calls it for
    every unit of a plan, and every queue worker (:mod:`repro.queue`) for
    every unit it claims.  Dependencies are *not* re-executed: they come from
    ``memo`` when an earlier unit of the same run or worker built them, else
    from the content-addressed cache, else from a deterministic recompute
    (slower but bit-identical).  So running units in any
    dependency-respecting order, across any number of processes, yields the
    same artefacts and outcomes.

    Returns per kind:

    * campaign/train — ``{"digest": <artefact digest>}``;
    * eval — ``{"stats": [<ErrorStats dict> per attack point]}``;
    * scenario — ``{"stats": <ErrorStats dict>, "attack_point": <dict>}``.

    :func:`plan_records` decodes these documents into result records.
    """
    kind = unit_kind(unit)
    with _unit_span(unit, config, cache):
        campaign, campaign_digest = memo.campaign(unit.building, config, cache)
        if kind == "campaign":
            return {"digest": campaign_digest}
        model: Optional[Localizer] = None
        model_digest: Optional[str] = None
        if kind != "scenario" or unit.spec.build().trains_standard_model:
            model, model_digest = memo.localizer(
                unit.task, campaign, campaign_digest, cache
            )
        if kind == "train":
            return {"digest": model_digest}
        if kind == "eval":
            stats = evaluate_unit(
                unit, model, model_digest, campaign, config, cache, memo
            )
            return {"stats": [dataclasses.asdict(s) for s in stats]}
        scenario_stats, attack_point = evaluate_scenario_unit(
            unit, model, model_digest, campaign, campaign_digest, config, cache, memo
        )
        return {
            "stats": dataclasses.asdict(scenario_stats),
            "attack_point": dataclasses.asdict(attack_point),
        }


def plan_records(
    plan: ExecutionPlan, outcomes: Sequence[Optional[Mapping[str, Any]]]
) -> ResultSet:
    """Decode the outcome documents of a plan's units into canonical records.

    ``outcomes[i]`` is the :func:`execute_unit` document of
    ``plan.all_units()[i]``, or ``None`` for a unit without one (a partially
    collected queue run).  Campaign and train outcomes carry no records; eval
    units give one record per attack point, in plan order, and scenario units
    one record each after them.  Both :func:`repro.api.run_experiment` and
    the queue (:func:`repro.queue.collect_results`) decode through here,
    which is what keeps their result sets identical record for record.
    """
    results = ResultSet()
    for unit, outcome in zip(plan.all_units(), outcomes, strict=True):
        if outcome is None or isinstance(unit, (CampaignUnit, TrainUnit)):
            continue
        if isinstance(unit, EvalUnit):
            for scenario, stats in zip(unit.scenarios, outcome["stats"]):
                results.add(
                    EvaluationRecord(
                        model=unit.task.label,
                        building=unit.building,
                        device=unit.device,
                        scenario=scenario,
                        stats=ErrorStats(**stats),
                        defense=unit.task.defense_label,
                    )
                )
            continue
        results.add(
            EvaluationRecord(
                model=unit.task.label,
                building=unit.building,
                device=unit.device,
                scenario=AttackScenario(**outcome["attack_point"]),
                stats=ErrorStats(**outcome["stats"]),
                condition=unit.spec.display_name,
                defense=unit.task.defense_label,
            )
        )
    return results
