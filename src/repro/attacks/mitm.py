"""Channel-side man-in-the-middle (MITM) attack scenarios (Sec. III.A).

The paper distinguishes two MITM variants on the channel side:

* **Signal manipulation** — the adversary tampers with the genuine RSS of the
  targeted APs, adding a gradient-crafted perturbation (Fig. 2, A:1).
* **Signal spoofing** — the adversary impersonates the targeted APs
  (cloning MAC address and channel) and broadcasts *counterfeit* signals; the
  victim therefore receives fabricated RSS values that resemble legitimate
  ones but carry adversarial perturbations (Fig. 2, A:2).

Both variants use one of the white-box crafting methods (FGSM / PGD / MIM) to
decide the direction of the perturbation; they differ in whether the genuine
measurement survives underneath the perturbation.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..data.fingerprint import FingerprintDataset, denormalize_rss
from ..registry import ATTACKS
from .base import Attack, GradientProvider, ThreatModel

__all__ = [
    "replay_survey",
    "SignalManipulationAttack",
    "SignalSpoofingAttack",
    "attack_dataset",
]


@ATTACKS.register("MITM-manipulation", tags=("mitm",), aliases=("manipulation",))
class SignalManipulationAttack(Attack):
    """MITM signal manipulation: perturb the genuine RSS of targeted APs."""

    name = "MITM-manipulation"

    def __init__(self, threat_model: ThreatModel, method: str = "FGSM", **kwargs) -> None:
        super().__init__(threat_model)
        self.crafter = ATTACKS.create(method, threat_model, **kwargs)

    def perturb(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        victim: GradientProvider,
        target_mask: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        return self.crafter.perturb(features, labels, victim, target_mask=target_mask)


def replay_survey(dataset: FingerprintDataset) -> np.ndarray:
    """Per-AP replay baseline a spoofer derives from its own offline survey.

    Returns the mean normalised RSS of every AP over ``dataset`` — the
    population-plausible value :class:`SignalSpoofingAttack` broadcasts as its
    counterfeit baseline.  Derive this **once** from the campaign's offline
    split and pass it as ``replay_features``: the baseline is then a property
    of the building survey, independent of whichever test batch the attack is
    later applied to (and therefore of how the evaluation engine shards
    batches across work units).
    """
    return dataset.features.mean(axis=0)


@ATTACKS.register("MITM-spoofing", tags=("mitm",), aliases=("spoofing",))
class SignalSpoofingAttack(Attack):
    """MITM signal spoofing: replace targeted APs with counterfeit signals.

    The counterfeit baseline for a spoofed AP is the population-plausible
    value the adversary replays (the average RSS of that AP over the spoofer's
    own survey of the building — see :func:`replay_survey`); the adversarial
    perturbation is then applied on top, so the fabricated signal "outwardly
    resembles" the legitimate one while misleading the model.

    ``replay_features`` should always be supplied from an offline survey (the
    evaluation engine threads the campaign's offline split through every
    spoofing work unit).  When it is omitted, the attack falls back to the
    mean of the batch it is handed — an attacker-local estimate that makes
    the result depend on batch composition, kept only for standalone
    experimentation.
    """

    name = "MITM-spoofing"

    def __init__(
        self,
        threat_model: ThreatModel,
        method: str = "FGSM",
        replay_features: Optional[np.ndarray] = None,
        **kwargs,
    ) -> None:
        super().__init__(threat_model)
        self.crafter = ATTACKS.create(method, threat_model, **kwargs)
        #: Per-AP replay values used as the counterfeit baseline (normalised).
        self.replay_features = replay_features

    def perturb(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        victim: GradientProvider,
        target_mask: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        features = np.asarray(features, dtype=np.float64)
        if self.threat_model.is_null:
            return features.copy()
        mask = self._resolve_mask(features, target_mask).astype(bool)
        replay = (
            self.replay_features
            if self.replay_features is not None
            else features.mean(axis=0)
        )
        replay = np.asarray(replay, dtype=np.float64)
        if replay.shape != (features.shape[1],):
            raise ValueError(
                f"replay_features must have shape ({features.shape[1]},), got {replay.shape}"
            )
        # Step 1: the spoofer overwrites the targeted APs with replayed values.
        spoofed = features.copy()
        spoofed[:, mask] = replay[mask]
        # Step 2: adversarial perturbation is crafted on the spoofed signal.
        return self.crafter.perturb(spoofed, labels, victim, target_mask=mask)


def attack_dataset(
    dataset: FingerprintDataset,
    attack: Attack,
    victim: GradientProvider,
    target_mask: Optional[np.ndarray] = None,
) -> FingerprintDataset:
    """Apply ``attack`` to every fingerprint of ``dataset`` against ``victim``.

    Returns a new :class:`FingerprintDataset` whose raw RSS is the
    denormalised adversarial features, so it can flow through the exact same
    evaluation path as clean data.
    """
    features = dataset.features
    adversarial = attack.perturb(features, dataset.labels, victim, target_mask=target_mask)
    return dataset.with_rss(denormalize_rss(adversarial))
