"""Randomized-smoothing-style input-noise hardening.

A model-agnostic defense: the offline database is augmented with Gaussian
noisy copies of every fingerprint, teaching the decision boundary to be flat
inside a small ball around each training point — the training-time half of
randomized smoothing, and a reasonable certificate-free stand-in for it when
the attack budget is small.  Because it only rewrites the dataset it applies
to *every* registered localizer, including non-differentiable ones (KNN,
GPC, gradient-boosted trees), not just the gradient-capable family.
"""

from __future__ import annotations

import numpy as np

from ..data.fingerprint import FingerprintDataset, denormalize_rss
from ..interfaces import Localizer
from ..registry import DEFENSES
from .base import Defense

__all__ = ["InputNoiseDefense"]


@DEFENSES.register(
    "input-noise",
    tags=("training", "universal"),
    aliases=("randomized-smoothing", "smoothing"),
)
class InputNoiseDefense(Defense):
    """Gaussian input-noise training augmentation (works for any model).

    Parameters
    ----------
    noise_std:
        Standard deviation of the noise, in normalised feature units
        (``[0, 1]`` ≙ ``[-100, 0]`` dBm).
    copies:
        Number of noisy copies appended per clean fingerprint.
    """

    name = "input-noise"
    hardens_training = True

    def __init__(self, seed: int = 0, noise_std: float = 0.05, copies: int = 2) -> None:
        super().__init__(seed)
        if noise_std <= 0:
            raise ValueError("noise_std must be positive")
        if copies < 1:
            raise ValueError("copies must be >= 1")
        self.noise_std = float(noise_std)
        self.copies = int(copies)

    def config(self) -> dict:
        return {"noise_std": self.noise_std, "copies": self.copies}

    def augment(self, dataset: FingerprintDataset) -> FingerprintDataset:
        """The smoothed training set: clean rows plus noisy copies."""
        features = dataset.features
        rng = np.random.default_rng(self.seed)
        rss_blocks = [dataset.rss_dbm]
        label_blocks = [dataset.labels]
        device_blocks = [dataset.devices]
        for _ in range(self.copies):
            noisy = features + rng.normal(0.0, self.noise_std, size=features.shape)
            noisy = np.clip(noisy, 0.0, 1.0)
            rss_blocks.append(denormalize_rss(noisy))
            label_blocks.append(dataset.labels)
            device_blocks.append(dataset.devices)
        return FingerprintDataset(
            rss_dbm=np.concatenate(rss_blocks, axis=0),
            labels=np.concatenate(label_blocks, axis=0),
            rp_positions=dataset.rp_positions,
            building=dataset.building,
            devices=np.concatenate(device_blocks, axis=0),
        )

    def wrap_training(
        self, model: Localizer, dataset: FingerprintDataset
    ) -> Localizer:
        model.fit(self.augment(dataset))
        return model
