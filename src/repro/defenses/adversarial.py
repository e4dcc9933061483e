"""Standard (non-curriculum) PGD adversarial training.

The classical Madry-style recipe the paper's curriculum improves on: train on
clean data, craft a one-shot batch of multi-step PGD adversarial examples
against the trained model at a single (ε, ø) operating point, then continue
training on the clean + adversarial mix.  Unlike
:class:`~repro.defenses.curriculum.CurriculumAdversarialDefense` there is no
difficulty schedule — the model sees the full attack strength immediately —
which is exactly the behaviour the evaluation contrasts the curriculum
against.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..attacks.base import ThreatModel
from ..attacks.pgd import PGDAttack
from ..data.fingerprint import FingerprintDataset
from ..interfaces import Localizer
from ..registry import DEFENSES
from .base import Defense, override_epochs, require_trainable

__all__ = ["PGDAdversarialTrainingDefense"]


@DEFENSES.register(
    "pgd-adversarial",
    tags=("training", "adversarial"),
    aliases=("adversarial-training", "pgd-at"),
)
class PGDAdversarialTrainingDefense(Defense):
    """One-shot PGD adversarial training at a fixed (ε, ø) operating point.

    Parameters
    ----------
    epsilon / phi_percent:
        The single operating point the adversarial batch is crafted at.
    adversarial_fraction:
        Fraction of the training set attacked and appended to the mix.
    num_steps:
        PGD iteration count.
    adversarial_epochs:
        Epochs of continued training on the mixed data; defaults to half the
        model's own epoch budget.
    """

    name = "pgd-adversarial"
    hardens_training = True

    def __init__(
        self,
        seed: int = 0,
        epsilon: float = 0.1,
        phi_percent: float = 50.0,
        adversarial_fraction: float = 0.5,
        num_steps: int = 7,
        adversarial_epochs: Optional[int] = None,
    ) -> None:
        super().__init__(seed)
        if not 0.0 < adversarial_fraction <= 1.0:
            raise ValueError("adversarial_fraction must be in (0, 1]")
        if adversarial_epochs is not None and adversarial_epochs <= 0:
            raise ValueError("adversarial_epochs must be positive")
        self.epsilon = float(epsilon)
        self.phi_percent = float(phi_percent)
        self.adversarial_fraction = float(adversarial_fraction)
        self.num_steps = int(num_steps)
        self.adversarial_epochs = adversarial_epochs

    def config(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "phi_percent": self.phi_percent,
            "adversarial_fraction": self.adversarial_fraction,
            "num_steps": self.num_steps,
            "adversarial_epochs": self.adversarial_epochs,
        }

    def wrap_training(
        self, model: Localizer, dataset: FingerprintDataset
    ) -> Localizer:
        require_trainable(model, self.name)
        model.fit(dataset)  # clean phase: the model's own full training run
        features = dataset.features
        labels = dataset.labels
        rng = np.random.default_rng(self.seed)
        num_adversarial = max(
            1, int(round(self.adversarial_fraction * features.shape[0]))
        )
        rows = rng.choice(features.shape[0], size=num_adversarial, replace=False)
        threat = ThreatModel(
            epsilon=self.epsilon, phi_percent=self.phi_percent, seed=self.seed
        )
        attack = PGDAttack(threat, num_steps=self.num_steps)
        adversarial = attack.perturb(features[rows], labels[rows], model)
        mixed_features = np.concatenate([features, adversarial], axis=0)
        mixed_labels = np.concatenate([labels, labels[rows]], axis=0)
        epochs = self.adversarial_epochs or max(1, int(model.epochs) // 2)
        with override_epochs(model, epochs):
            model.continue_training(mixed_features, mixed_labels)
        return model
