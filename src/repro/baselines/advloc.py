"""AdvLoc baseline [24]: DNN with FGSM adversarial-training augmentation.

AdvLoc hardens a plain DNN by mixing a subset of FGSM-crafted adversarial
samples into the offline training set.  Unlike CALLOC it has no curriculum:
the adversarial samples are generated once, at a single (ε, ø) operating
point, from a preliminary model, and the network is then trained on the mixed
data.  This reproduces the behaviour the paper reports — reasonable robustness
to mild FGSM attacks that erodes as ø grows and under stronger PGD/MIM
attacks.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..attacks.base import ThreatModel
from ..attacks.fgsm import FGSMAttack
from ..registry import LOCALIZERS
from .dnn import DNNLocalizer

__all__ = ["AdvLocLocalizer"]


@LOCALIZERS.register("AdvLoc", tags=("baseline", "neural", "defended"))
class AdvLocLocalizer(DNNLocalizer):
    """DNN localizer with one-shot FGSM adversarial training."""

    name = "AdvLoc"

    def __init__(
        self,
        adversarial_fraction: float = 0.3,
        adversarial_epsilon: float = 0.1,
        adversarial_phi: float = 30.0,
        warmup_epochs: int = 15,
        hidden_dims: Sequence[int] = (128, 64),
        dropout: float = 0.1,
        epochs: int = 60,
        lr: float = 1e-3,
        batch_size: int = 32,
        seed: int = 0,
    ) -> None:
        super().__init__(
            hidden_dims=hidden_dims,
            dropout=dropout,
            epochs=epochs,
            lr=lr,
            batch_size=batch_size,
            seed=seed,
        )
        if not 0.0 <= adversarial_fraction <= 1.0:
            raise ValueError("adversarial_fraction must be in [0, 1]")
        self.adversarial_fraction = adversarial_fraction
        self.adversarial_epsilon = adversarial_epsilon
        self.adversarial_phi = adversarial_phi
        self.warmup_epochs = warmup_epochs

    def prepare_training_data(self, features: np.ndarray, labels: np.ndarray) -> tuple:
        """Augment the clean data with a one-shot batch of FGSM samples."""
        if self.adversarial_fraction == 0.0:
            return features, labels
        # Warm-up phase: briefly train on clean data so that gradients used to
        # craft the adversarial samples are meaningful.
        warmup_epochs = min(self.warmup_epochs, self.epochs)
        original_epochs = self.epochs
        self.epochs = warmup_epochs
        self._train(features, labels)
        self.epochs = original_epochs

        rng = np.random.default_rng(self.seed + 1)
        num_adversarial = max(1, int(round(self.adversarial_fraction * features.shape[0])))
        selected = rng.choice(features.shape[0], size=num_adversarial, replace=False)
        threat = ThreatModel(
            epsilon=self.adversarial_epsilon,
            phi_percent=self.adversarial_phi,
            seed=self.seed,
        )
        attack = FGSMAttack(threat)
        adversarial = attack.perturb(features[selected], labels[selected], self)
        augmented_features = np.concatenate([features, adversarial], axis=0)
        augmented_labels = np.concatenate([labels, labels[selected]], axis=0)
        return augmented_features, augmented_labels
