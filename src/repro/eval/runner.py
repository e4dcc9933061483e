"""Experiment runner: trains localizers and evaluates them under attack.

The runner owns the plumbing every figure/table of the paper needs:

* simulate (or load) the fingerprint campaign for each building,
* train a localizer on the offline (OP3) database,
* attack the online fingerprints of each test device under a grid of
  :class:`~repro.eval.scenarios.AttackScenario` operating points,
* report localization-error statistics per (model, building, device, scenario).

Non-differentiable victims (KNN, GPC, SANGRIA, WiDeep, ...) are attacked
through a surrogate-gradient model fitted on the victim's own predictions, as
described in ``repro.attacks.surrogate``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..attacks.base import GradientProvider, ThreatModel
from ..attacks.mitm import SignalSpoofingAttack, attack_dataset, replay_survey
from ..attacks.surrogate import SurrogateGradientModel
from ..data.campaign import CampaignConfig, LocalizationCampaign, collect_campaign
from ..data.fingerprint import FingerprintDataset
from ..data.floorplan import paper_building
from ..interfaces import ErrorSummary, Localizer
from ..registry import make_attack
from .metrics import ErrorStats, error_stats
from .scenarios import AttackScenario, EvaluationConfig

__all__ = ["EvaluationRecord", "ResultSet", "ExperimentRunner"]


def _criterion_matches(actual: object, expected: object) -> bool:
    """Equality that tolerates float rounding for ε/ø-style criteria."""
    if isinstance(expected, float) and isinstance(actual, (int, float)):
        return math.isclose(float(actual), expected, rel_tol=1e-9, abs_tol=1e-12)
    return actual == expected


@dataclass(frozen=True)
class EvaluationRecord:
    """One measured operating point.

    ``condition`` names the robustness scenario the cell was evaluated under
    (``"standard"`` for the plain attack grid; e.g. ``"drift"`` or
    ``"ap-outage"`` for cells produced by scenario work units).  ``defense``
    names the hardening strategy the model was trained under (``"none"`` for
    the undefended path), making every result set a defense × attack ×
    scenario matrix.
    """

    model: str
    building: str
    device: str
    scenario: AttackScenario
    stats: ErrorStats
    condition: str = "standard"
    defense: str = "none"

    def as_dict(self) -> Dict[str, object]:
        """Flat dictionary (for CSV export and report tables).

        Clean rows (ε = 0 or ø = 0) report ``attack="clean"`` **and** zero in
        both the ε and ø columns: a scenario like ``(ε=0.3, ø=0)`` carries no
        perturbation, so exporting its nominal ε would show a phantom attack
        strength in CSV exports.
        """
        clean = self.scenario.is_clean
        row: Dict[str, object] = {
            "model": self.model,
            "building": self.building,
            "device": self.device,
            "scenario": self.condition,
            "defense": self.defense,
            "attack": "clean" if clean else self.scenario.method,
            "epsilon": 0.0 if clean else self.scenario.epsilon,
            "phi": 0.0 if clean else self.scenario.phi_percent,
        }
        row.update(self.stats.as_dict())
        return row


@dataclass
class ResultSet:
    """A queryable collection of evaluation records."""

    records: List[EvaluationRecord] = field(default_factory=list)

    def add(self, record: EvaluationRecord) -> None:
        self.records.append(record)

    def extend(self, records: Sequence[EvaluationRecord]) -> None:
        self.records.extend(records)

    def __len__(self) -> int:
        return len(self.records)

    def filter(self, **criteria) -> "ResultSet":
        """Filter by model / building / device / scenario / defense / attack / epsilon / phi.

        Float-valued criteria (``epsilon``/``phi``) are compared with
        :func:`math.isclose`, so grid values that went through JSON or
        arithmetic round-trips still match.
        """
        selected = []
        for record in self.records:
            row = record.as_dict()
            if all(
                _criterion_matches(row.get(key), value)
                for key, value in criteria.items()
            ):
                selected.append(record)
        return ResultSet(selected)

    def mean_error(self) -> float:
        """Sample-weighted mean localization error over all records."""
        if not self.records:
            raise ValueError("result set is empty")
        weights = np.array([r.stats.count for r in self.records], dtype=np.float64)
        means = np.array([r.stats.mean for r in self.records])
        return float((weights * means).sum() / weights.sum())

    def worst_case_error(self) -> float:
        """Maximum localization error over all records."""
        if not self.records:
            raise ValueError("result set is empty")
        return float(max(r.stats.worst_case for r in self.records))

    def error_summary(self) -> ErrorSummary:
        """Weighted mean, worst case and sample count in a single pass."""
        if not self.records:
            raise ValueError("result set is empty")
        total = 0
        weighted_mean = 0.0
        worst = 0.0
        for record in self.records:
            total += record.stats.count
            weighted_mean += record.stats.mean * record.stats.count
            worst = max(worst, record.stats.worst_case)
        return ErrorSummary(
            mean=weighted_mean / total, worst_case=worst, count=total
        )

    def models(self) -> List[str]:
        """Distinct model names present in the results."""
        return sorted({r.model for r in self.records})

    def to_rows(self) -> List[Dict[str, object]]:
        """All records as flat dictionaries."""
        return [record.as_dict() for record in self.records]

    def to_records(self) -> List[Dict[str, object]]:
        """Alias of :meth:`to_rows`; canonical form for equality comparisons.

        Two runs of the same experiment are bit-identical exactly when their
        ``to_records()`` lists compare equal (order included).
        """
        return self.to_rows()


class ExperimentRunner:
    """Coordinates campaigns, model training and attacked evaluation.

    The reference path: ``evaluate_model``/``evaluate_models`` walk the grid
    with plain nested loops over model factories, with no work units and no
    on-disk cache.  Declarative specs run through :func:`repro.api.run_experiment`,
    whose results tests compare against this path record for record.
    """

    def __init__(self, config: Optional[EvaluationConfig] = None) -> None:
        self.config = config or EvaluationConfig.quick()
        self._campaigns: Dict[str, LocalizationCampaign] = {}
        self._surrogates: Dict[int, SurrogateGradientModel] = {}

    # ------------------------------------------------------------------
    def campaign(self, building_name: str) -> LocalizationCampaign:
        """Return (and cache) the simulated campaign for a building."""
        if building_name not in self._campaigns:
            building = paper_building(
                building_name, rp_granularity_m=self.config.rp_granularity_m
            )
            self._campaigns[building_name] = collect_campaign(
                building, CampaignConfig(seed=self.config.campaign_seed)
            )
        return self._campaigns[building_name]

    def train(self, factory: Callable[[], Localizer], building_name: str) -> Localizer:
        """Instantiate and fit a localizer on a building's offline database."""
        campaign = self.campaign(building_name)
        model = factory()
        model.fit(campaign.train)
        return model

    # ------------------------------------------------------------------
    def _gradient_provider(
        self, model: Localizer, campaign: LocalizationCampaign
    ) -> GradientProvider:
        """White-box gradient access: native for NN models, surrogate otherwise."""
        if hasattr(model, "loss_gradient"):
            return model  # type: ignore[return-value]
        key = id(model)
        if key not in self._surrogates:
            train = campaign.train
            surrogate = SurrogateGradientModel(
                num_aps=train.num_aps,
                num_classes=train.num_classes,
                epochs=80,
                seed=self.config.model_seed,
            )
            victim_labels = model.predict(train.features)
            surrogate.fit(train.features, victim_labels)
            self._surrogates[key] = surrogate
        return self._surrogates[key]

    def attacked_dataset(
        self,
        model: Localizer,
        dataset: FingerprintDataset,
        scenario: AttackScenario,
        campaign: LocalizationCampaign,
    ) -> FingerprintDataset:
        """Apply one attack scenario to a test dataset against ``model``."""
        if scenario.is_clean:
            return dataset
        threat = ThreatModel(
            epsilon=scenario.epsilon,
            phi_percent=scenario.phi_percent,
            seed=scenario.seed,
        )
        attack = make_attack(scenario.method, threat)
        if isinstance(attack, SignalSpoofingAttack) and attack.replay_features is None:
            # The spoofer's counterfeit baseline comes from its own offline
            # survey of the building, never from the batch under attack.
            attack.replay_features = replay_survey(campaign.train)
        victim = self._gradient_provider(model, campaign)
        return attack_dataset(dataset, attack, victim)

    # ------------------------------------------------------------------
    def evaluate_model(
        self,
        name: str,
        factory: Callable[[], Localizer],
        scenarios: Sequence[AttackScenario],
        buildings: Optional[Sequence[str]] = None,
        devices: Optional[Sequence[str]] = None,
    ) -> ResultSet:
        """Train ``factory()`` per building and evaluate it across the grid."""
        buildings = tuple(buildings) if buildings is not None else self.config.buildings
        devices = tuple(devices) if devices is not None else self.config.devices
        results = ResultSet()
        for building_name in buildings:
            campaign = self.campaign(building_name)
            model = self.train(factory, building_name)
            for device in devices:
                test = campaign.test_for(device)
                for scenario in scenarios:
                    attacked = self.attacked_dataset(model, test, scenario, campaign)
                    errors = model.evaluate(attacked)
                    results.add(
                        EvaluationRecord(
                            model=name,
                            building=building_name,
                            device=device,
                            scenario=scenario,
                            stats=error_stats(errors),
                        )
                    )
        return results

    def evaluate_models(
        self,
        factories: Dict[str, Callable[[], Localizer]],
        scenarios: Sequence[AttackScenario],
        buildings: Optional[Sequence[str]] = None,
        devices: Optional[Sequence[str]] = None,
    ) -> ResultSet:
        """Evaluate several named models over the same scenario grid."""
        results = ResultSet()
        for name, factory in factories.items():
            results.extend(
                self.evaluate_model(name, factory, scenarios, buildings, devices).records
            )
        return results
