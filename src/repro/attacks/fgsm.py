"""Fast Gradient Sign Method (FGSM) attack [27].

Single-step, non-iterative:

.. math::

    X_{adv} = X + \\epsilon \\cdot \\mathrm{sign}(\\nabla_X J(X, Y))

restricted to the targeted access points (ø) and clipped back into the valid
normalised RSS range.  FGSM is also the attack CALLOC uses to synthesise its
curriculum lessons during offline training (Sec. IV.A).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..registry import ATTACKS
from .base import Attack, GradientProvider

__all__ = ["FGSMAttack"]


@ATTACKS.register("FGSM", tags=("crafting",))
class FGSMAttack(Attack):
    """One-step sign-gradient attack."""

    name = "FGSM"

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
        mask = self._resolve_mask(features, target_mask)
        gradient = victim.loss_gradient(features, labels)
        perturbation = self.threat_model.epsilon * np.sign(gradient) * mask
        adversarial = self._clip(features + perturbation)
        return adversarial[0] if squeeze else adversarial
