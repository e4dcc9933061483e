"""Pluggable robustness scenarios: deployment conditions beyond crafted attacks.

The paper's threat model (Sec. III) motivates robustness against more than
gradient-crafted perturbations — device heterogeneity and environmental change
degrade fingerprints just as surely as an adversary does.  This module turns
those conditions into first-class, registry-backed *scenarios* that compose
with the existing models × buildings × devices grid:

``clean``
    The unmodified online phase — the reference row of every robustness matrix.
``drift``
    Temporal drift between the offline survey and the online phase: the
    shadow-fading field is partially re-drawn and AP transmit powers shift.
``ap-outage``
    Infrastructure failure: *k* access points go dark at test time.
``rogue-ap``
    Counterfeit infrastructure: rogue transmitters clone legitimate AP
    identities and broadcast from new positions, so the victim's scan reports
    the strongest beacon per identity.
``unseen-device``
    Leave-one-device-out generalization: the model is trained on the pooled
    scans of every *other* device, so the evaluated hardware signature is
    never seen at fit time (replacing the fixed OP3-trains-all setup).
``adaptive-blackbox``
    An adaptive attacker without gradient access: perturbations are crafted on
    a surrogate fitted to the victim's query responses and transferred
    (:mod:`repro.attacks.surrogate`), even against natively differentiable
    victims.

A scenario is registered with ``@SCENARIOS.register`` (the
:data:`repro.registry.SCENARIOS` registry) and referenced declaratively
through :class:`ScenarioSpec` — in :class:`repro.api.ExperimentSpec`
(``robustness=("drift", "ap-outage")``), on the CLI (``repro run --scenario
drift``), and in the execution engine, where each (model, building, device,
scenario) cell is one cached, deterministic work unit (in-process ≡
queue-drained ``jobs=N``, cold ≡ warm cache).

Every scenario derives all of its randomness from a :func:`stable_seed` over
its own seed plus the names of the entities involved, never from shared RNG
state — two processes evaluating the same cell draw bit-identical conditions.

Adding a scenario family::

    from repro.registry import SCENARIOS
    from repro.eval.robustness import RobustnessScenario

    @SCENARIOS.register("jammer", tags=("adversarial",))
    class JammerScenario(RobustnessScenario):
        name = "jammer"

        def transform_test(self, test, campaign, device):
            ...
"""

from __future__ import annotations

import abc
import hashlib
from typing import List, Optional, Tuple, Union

import numpy as np

from ..data.campaign import LocalizationCampaign
from ..data.fingerprint import FingerprintDataset
from ..data.propagation import (
    RSS_CEIL_DBM,
    RSS_FLOOR_DBM,
    correlated_shadowing_field,
)
from ..registry import SCENARIOS, ComponentSpec
from .scenarios import AttackScenario

__all__ = [
    "DEFAULT_SCENARIOS",
    "stable_seed",
    "RobustnessScenario",
    "ScenarioSpec",
    "CleanScenario",
    "TemporalDriftScenario",
    "APOutageScenario",
    "RogueAPScenario",
    "UnseenDeviceScenario",
    "AdaptiveBlackBoxScenario",
    "default_robustness_specs",
]

#: The scenario families of the default robustness matrix, in display order.
DEFAULT_SCENARIOS: Tuple[str, ...] = (
    "clean",
    "drift",
    "ap-outage",
    "rogue-ap",
    "unseen-device",
    "adaptive-blackbox",
)


def stable_seed(*parts: Union[str, int, float]) -> int:
    """Deterministic 63-bit seed derived from arbitrary string/number parts.

    Platform- and process-stable (SHA-256, not ``hash()``), so work units
    executed in different worker processes draw identical scenario conditions.
    """
    text = "\x1f".join(str(part) for part in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") >> 1


class RobustnessScenario(abc.ABC):
    """One deployment condition applied around the standard evaluation cell.

    A scenario may change any combination of (a) the offline split the model
    is trained on (:meth:`train_dataset`; set ``trains_standard_model = False``
    so the engine trains and caches a scenario-specific model), (b) the online
    test fingerprints (:meth:`transform_test`), and (c) the attacker
    (:meth:`attack_scenario`, optionally with ``force_surrogate`` to deny the
    attacker gradient access to the victim).
    """

    #: Registry name (also used in seed derivation).
    name: str = "scenario"
    #: False when the scenario replaces the offline training split; the
    #: engine then trains a scenario-specific model (with its own cache key)
    #: instead of reusing the standard one.
    trains_standard_model: bool = True
    #: True when the scenario's attacker has no gradient access to the victim
    #: and must transfer perturbations through a surrogate model.
    force_surrogate: bool = False
    #: False when :meth:`transform_test` is the identity; the engine then
    #: serves the test split directly instead of caching an unmodified copy
    #: of it per cell.  Leave True in subclasses that override the transform.
    transforms_test: bool = True

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)

    def rng(self, *parts: Union[str, int, float]) -> np.random.Generator:
        """Deterministic generator scoped to this scenario and ``parts``."""
        return np.random.default_rng(stable_seed(type(self).name, self.seed, *parts))

    # -- hooks ----------------------------------------------------------
    def train_dataset(
        self, campaign: LocalizationCampaign, device: str
    ) -> FingerprintDataset:
        """The offline split the victim model is fitted on (default: standard)."""
        return campaign.train

    def attack_scenario(self) -> Optional[AttackScenario]:
        """The attack applied after :meth:`transform_test` (default: none)."""
        return None

    def transform_test(
        self, test: FingerprintDataset, campaign: LocalizationCampaign, device: str
    ) -> FingerprintDataset:
        """The online-phase fingerprints under this condition (default: as-is)."""
        return test

    def __repr__(self) -> str:
        return f"{type(self).__name__}(seed={self.seed})"


# ----------------------------------------------------------------------
# Declarative reference
# ----------------------------------------------------------------------
class ScenarioSpec(ComponentSpec):
    """Serializable, hashable reference to a registered scenario family.

    A :class:`~repro.registry.ComponentSpec` over the scenario registry;
    :meth:`build` returns a :class:`RobustnessScenario`.
    """

    registry = SCENARIOS


# ----------------------------------------------------------------------
# Scenario families
# ----------------------------------------------------------------------
@SCENARIOS.register("clean", tags=("baseline",))
class CleanScenario(RobustnessScenario):
    """Unmodified online phase: the reference row of every robustness matrix."""

    name = "clean"
    transforms_test = False


@SCENARIOS.register("drift", tags=("environment",), aliases=("temporal-drift",))
class TemporalDriftScenario(RobustnessScenario):
    """Temporal drift: re-drawn shadow fading and shifted AP transmit powers.

    Between the offline survey and the online phase, furniture moves, doors
    open, and APs are replaced or re-configured.  The scenario models this as
    a spatially correlated shadowing delta (same kernel as the survey's own
    shadowing field, scaled by ``shadow_drift_db``) plus a per-AP transmit
    power shift (``tx_power_drift_db`` standard deviation).  The drift is a
    property of the building, so every device sees the same changed channel.
    """

    name = "drift"

    def __init__(
        self,
        seed: int = 0,
        shadow_drift_db: float = 3.0,
        tx_power_drift_db: float = 2.0,
    ) -> None:
        super().__init__(seed)
        if shadow_drift_db < 0 or tx_power_drift_db < 0:
            raise ValueError("drift magnitudes must be non-negative")
        self.shadow_drift_db = float(shadow_drift_db)
        self.tx_power_drift_db = float(tx_power_drift_db)

    def transform_test(
        self, test: FingerprintDataset, campaign: LocalizationCampaign, device: str
    ) -> FingerprintDataset:
        building = campaign.building
        rng = self.rng(campaign.building_name)
        delta = correlated_shadowing_field(
            building.rp_distance_matrix(),
            self.shadow_drift_db,
            campaign.config.propagation.shadowing_correlation_m,
            building.num_access_points,
            rng,
        )
        tx_shift = rng.normal(0.0, self.tx_power_drift_db, size=test.num_aps)
        rss = test.rss_dbm
        detected = rss > RSS_FLOOR_DBM
        drifted = rss + tx_shift[None, :] + delta[test.labels]
        drifted = np.clip(drifted, RSS_FLOOR_DBM, RSS_CEIL_DBM)
        threshold = campaign.config.propagation.detection_threshold_dbm
        drifted = np.where(drifted < threshold, RSS_FLOOR_DBM, drifted)
        # An AP the original scan never delivered stays undetected: drift
        # changes the channel, it cannot resurrect a missed beacon.
        return test.with_rss(np.where(detected, drifted, RSS_FLOOR_DBM))


@SCENARIOS.register("ap-outage", tags=("infrastructure",), aliases=("outage",))
class APOutageScenario(RobustnessScenario):
    """Infrastructure failure: *k* access points go dark at test time.

    The dark APs report the -100 dBm floor in every online scan while the
    offline database still carries their fingerprints — the mismatch every
    real deployment faces during power failures or maintenance windows.
    Which APs fail is a property of the building (same outage for every
    device), drawn deterministically from the scenario seed.
    """

    name = "ap-outage"

    def __init__(
        self,
        seed: int = 0,
        outage_fraction: float = 0.2,
        num_down: Optional[int] = None,
    ) -> None:
        super().__init__(seed)
        if not 0.0 <= outage_fraction <= 1.0:
            raise ValueError("outage_fraction must be in [0, 1]")
        if num_down is not None and num_down < 0:
            raise ValueError("num_down must be non-negative")
        self.outage_fraction = float(outage_fraction)
        self.num_down = num_down

    def dark_aps(self, num_aps: int, building: str) -> np.ndarray:
        """Indices of the APs that are dark in ``building``.

        ``outage_fraction = 0`` (or ``num_down = 0``) means no outage at all;
        any positive fraction darkens at least one AP.
        """
        if self.num_down is not None:
            count = min(self.num_down, num_aps)
        elif self.outage_fraction == 0.0:
            count = 0
        else:
            count = max(1, int(round(num_aps * self.outage_fraction)))
            count = min(count, num_aps)
        return np.sort(
            self.rng(building).choice(num_aps, size=count, replace=False)
        )

    def transform_test(
        self, test: FingerprintDataset, campaign: LocalizationCampaign, device: str
    ) -> FingerprintDataset:
        dark = self.dark_aps(test.num_aps, campaign.building_name)
        rss = test.rss_dbm.copy()
        rss[:, dark] = RSS_FLOOR_DBM
        return test.with_rss(rss)


@SCENARIOS.register("rogue-ap", tags=("infrastructure", "adversarial"), aliases=("rogue",))
class RogueAPScenario(RobustnessScenario):
    """Counterfeit infrastructure: rogue transmitters clone AP identities.

    Each rogue device is placed at a deterministic position inside the
    walking-path hull, clones the MAC/channel of one legitimate AP and
    broadcasts at ``tx_power_dbm``.  A scanning victim keeps the strongest
    beacon per identity, so the observed RSS of a cloned AP becomes
    ``max(genuine, rogue)`` — counterfeit beacons appended to the scan under
    existing identities, which is how they defeat a fixed AP list.  Rogue
    propagation follows the survey's log-distance model (rogues sit in the
    open, so no wall term).
    """

    name = "rogue-ap"

    def __init__(
        self, seed: int = 0, num_rogues: int = 3, tx_power_dbm: float = 10.0
    ) -> None:
        super().__init__(seed)
        if num_rogues < 1:
            raise ValueError("num_rogues must be positive")
        self.num_rogues = int(num_rogues)
        self.tx_power_dbm = float(tx_power_dbm)

    def transform_test(
        self, test: FingerprintDataset, campaign: LocalizationCampaign, device: str
    ) -> FingerprintDataset:
        rng = self.rng(campaign.building_name)
        positions = campaign.building.rp_positions()
        cfg = campaign.config.propagation
        count = min(self.num_rogues, test.num_aps)
        cloned = rng.choice(test.num_aps, size=count, replace=False)
        low, high = positions.min(axis=0), positions.max(axis=0)
        rogue_xy = rng.uniform(low, high, size=(count, 2))
        distances = np.linalg.norm(
            positions[:, None, :] - rogue_xy[None, :, :], axis=2
        )
        distances = np.maximum(distances, cfg.min_distance_m)
        path_loss = cfg.reference_loss_db + 10.0 * cfg.path_loss_exponent * np.log10(
            distances
        )
        rogue_rss = np.clip(
            self.tx_power_dbm - path_loss, RSS_FLOOR_DBM, RSS_CEIL_DBM
        )
        rogue_rss = np.where(
            rogue_rss < cfg.detection_threshold_dbm, RSS_FLOOR_DBM, rogue_rss
        )
        rss = test.rss_dbm.copy()
        rss[:, cloned] = np.maximum(rss[:, cloned], rogue_rss[test.labels])
        return test.with_rss(rss)


@SCENARIOS.register("unseen-device", tags=("generalization",), aliases=("lodo",))
class UnseenDeviceScenario(RobustnessScenario):
    """Leave-one-device-out generalization split.

    The model trains on the pooled scans of every device *except* the one it
    is evaluated on (see
    :meth:`~repro.data.campaign.LocalizationCampaign.leave_one_device_out`),
    so the evaluated hardware signature is completely unseen at fit time.
    """

    name = "unseen-device"
    trains_standard_model = False
    transforms_test = False

    def train_dataset(
        self, campaign: LocalizationCampaign, device: str
    ) -> FingerprintDataset:
        return campaign.leave_one_device_out(device).train


@SCENARIOS.register("adaptive-blackbox", tags=("adversarial",), aliases=("blackbox",))
class AdaptiveBlackBoxScenario(RobustnessScenario):
    """Adaptive black-box attacker: surrogate-transfer perturbations.

    The attacker cannot read the victim's parameters; it fits a surrogate
    model to the victim's query responses and transfers gradient-crafted
    perturbations (``method``/``epsilon``/``phi_percent``) through it —
    the realistic downgrade of the paper's white-box adversary.  Unlike the
    standard attack grid, the surrogate path is forced even for natively
    differentiable victims.
    """

    name = "adaptive-blackbox"
    force_surrogate = True
    transforms_test = False

    def __init__(
        self,
        seed: int = 0,
        method: str = "FGSM",
        epsilon: float = 0.3,
        phi_percent: float = 50.0,
    ) -> None:
        super().__init__(seed)
        self.method = str(method)
        self.epsilon = float(epsilon)
        self.phi_percent = float(phi_percent)

    def attack_scenario(self) -> Optional[AttackScenario]:
        return AttackScenario(
            method=self.method,
            epsilon=self.epsilon,
            phi_percent=self.phi_percent,
            seed=self.seed,
        )


def default_robustness_specs(
    names: Optional[Tuple[str, ...]] = None,
) -> List[ScenarioSpec]:
    """Specs for the default robustness matrix (or an explicit name list)."""
    return [ScenarioSpec.create(name) for name in (names or DEFAULT_SCENARIOS)]
