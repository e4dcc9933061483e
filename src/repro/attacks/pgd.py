"""Projected Gradient Descent (PGD) attack [28].

Iterative refinement of the FGSM perturbation: at every step the adversarial
example moves ``alpha`` in the sign-gradient direction and is projected back
into the ε-ball around the original fingerprint (and into the valid feature
range).  Restricted to the targeted access points (ø).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..registry import ATTACKS
from .base import Attack, GradientProvider, ThreatModel

__all__ = ["PGDAttack"]


@ATTACKS.register("PGD", tags=("crafting",))
class PGDAttack(Attack):
    """Multi-step projected sign-gradient attack."""

    name = "PGD"

    def __init__(
        self,
        threat_model: ThreatModel,
        num_steps: int = 10,
        alpha: Optional[float] = None,
        random_start: bool = True,
    ) -> None:
        super().__init__(threat_model)
        if num_steps <= 0:
            raise ValueError("num_steps must be positive")
        self.num_steps = num_steps
        #: Step size; defaults to 2.5 ε / num_steps, the standard PGD setting.
        self.alpha = alpha if alpha is not None else 2.5 * threat_model.epsilon / num_steps
        self.random_start = random_start

    def perturb(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        victim: GradientProvider,
        target_mask: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        features, labels, squeeze = self._as_batch(features, labels)
        if self.threat_model.is_null:
            return features[0].copy() if squeeze else features.copy()
        epsilon = self.threat_model.epsilon
        mask = self._resolve_mask(features, target_mask)
        rng = np.random.default_rng(self.threat_model.seed)

        adversarial = features.copy()
        if self.random_start:
            adversarial = adversarial + rng.uniform(-epsilon, epsilon, size=features.shape) * mask
            adversarial = self._clip(adversarial)
        for _ in range(self.num_steps):
            gradient = victim.loss_gradient(adversarial, labels)
            adversarial = adversarial + self.alpha * np.sign(gradient) * mask
            # Project back into the ε-ball around the clean fingerprint.
            adversarial = np.clip(adversarial, features - epsilon, features + epsilon)
            adversarial = self._clip(adversarial)
        return adversarial[0] if squeeze else adversarial
