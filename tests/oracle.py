"""The reference experiment runner the identity tests compare against.

:func:`repro.api.run_experiment` and the campaign queue run an experiment as
a plan of cached work units through :func:`repro.eval.engine.execute_unit`.
This module walks the same grid the plain way: for each building it
simulates the campaign and trains the model, then attacks and scores each
test device at each operating point in nested loops.  Non-differentiable
victims (KNN, GPC, SANGRIA, WiDeep, ...) are attacked through a
surrogate-gradient model fitted on the victim's own predictions.  Its
records must equal the engine's record for record.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, Optional, Sequence

from repro.api import ExperimentSpec, model_params
from repro.attacks.base import GradientProvider, ThreatModel
from repro.attacks.mitm import SignalSpoofingAttack, attack_dataset, replay_survey
from repro.attacks.surrogate import SurrogateGradientModel
from repro.data.campaign import CampaignConfig, LocalizationCampaign, collect_campaign
from repro.data.fingerprint import FingerprintDataset
from repro.data.floorplan import paper_building
from repro.eval.metrics import error_stats
from repro.eval.runner import EvaluationRecord, ResultSet
from repro.eval.scenarios import AttackScenario, EvaluationConfig
from repro.interfaces import Localizer
from repro.registry import ATTACKS, LOCALIZERS

__all__ = ["ExperimentRunner", "spec_factories"]


def spec_factories(
    spec: ExperimentSpec, config: EvaluationConfig
) -> Dict[str, Callable[[], Localizer]]:
    """Label → zero-argument factory of every model of ``spec`` under ``config``."""
    return {
        model.display_name: functools.partial(
            LOCALIZERS.create, model.name, **model_params(model, config)
        )
        for model in spec.models
    }


class ExperimentRunner:
    """Coordinates campaigns, model training and attacked evaluation.

    ``evaluate_model``/``evaluate_models`` walk the grid with plain nested
    loops over model factories, with no work units, no unit executor and no
    on-disk cache.
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
        attack = ATTACKS.create(scenario.method, threat)
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
