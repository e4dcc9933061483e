"""Momentum Iterative Method (MIM) attack [29].

Like PGD, MIM refines the perturbation over several steps, but accumulates a
decaying momentum of the (L1-normalised) gradients, which stabilises the
update direction and typically yields stronger, better-transferring
adversarial examples.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..registry import ATTACKS
from .base import Attack, GradientProvider, ThreatModel

__all__ = ["MIMAttack"]


@ATTACKS.register("MIM", tags=("crafting",))
class MIMAttack(Attack):
    """Momentum-based iterative sign-gradient attack."""

    name = "MIM"

    def __init__(
        self,
        threat_model: ThreatModel,
        num_steps: int = 10,
        decay: float = 1.0,
        alpha: Optional[float] = None,
    ) -> None:
        super().__init__(threat_model)
        if num_steps <= 0:
            raise ValueError("num_steps must be positive")
        if decay < 0:
            raise ValueError("decay must be non-negative")
        self.num_steps = num_steps
        self.decay = decay
        #: Step size; defaults to ε / num_steps as in the original MIM paper.
        self.alpha = alpha if alpha is not None else threat_model.epsilon / num_steps

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

        adversarial = features.copy()
        momentum = np.zeros_like(features)
        for _ in range(self.num_steps):
            gradient = victim.loss_gradient(adversarial, labels)
            # L1-normalise per sample, reducing over every feature axis so the
            # update is well-defined for any input rank (a bare axis=1 crashed
            # on single 1-D fingerprints).
            feature_axes = tuple(range(1, gradient.ndim))
            norm = np.abs(gradient).sum(axis=feature_axes, keepdims=True)
            norm = np.where(norm == 0, 1.0, norm)
            momentum = self.decay * momentum + gradient / norm
            adversarial = adversarial + self.alpha * np.sign(momentum) * mask
            adversarial = np.clip(adversarial, features - epsilon, features + epsilon)
            adversarial = self._clip(adversarial)
        return adversarial[0] if squeeze else adversarial
