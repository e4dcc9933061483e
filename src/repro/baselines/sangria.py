"""SANGRIA baseline [19]: stacked autoencoder + gradient-boosted trees.

SANGRIA pre-trains a domain-specific stacked autoencoder on the offline
fingerprints (which gives it strong noise/heterogeneity augmentation) and then
classifies the encoded representation with a categorical gradient-boosted
tree ensemble.  The tree head makes it robust to benign noise but — as the
paper's comparison shows — it has no mechanism to resist gradient-crafted
adversarial perturbations.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..data.fingerprint import FingerprintDataset
from ..interfaces import Localizer
from ..registry import LOCALIZERS
from .autoencoder import StackedAutoencoder
from .gbdt import GradientBoostedClassifier

__all__ = ["SANGRIALocalizer"]


@LOCALIZERS.register("SANGRIA", tags=("baseline", "defended"))
class SANGRIALocalizer(Localizer):
    """Stacked-autoencoder encoder with a gradient-boosted tree classifier."""

    name = "SANGRIA"

    def __init__(
        self,
        hidden_dims: Sequence[int] = (128, 64),
        pretrain_epochs: int = 30,
        pretrain_lr: float = 1e-3,
        augmentation_noise: float = 0.05,
        num_rounds: int = 15,
        tree_depth: int = 3,
        learning_rate: float = 0.3,
        seed: int = 0,
    ) -> None:
        self.hidden_dims = tuple(hidden_dims)
        self.pretrain_epochs = pretrain_epochs
        self.pretrain_lr = pretrain_lr
        self.augmentation_noise = augmentation_noise
        self.num_rounds = num_rounds
        self.tree_depth = tree_depth
        self.learning_rate = learning_rate
        self.seed = seed
        self.autoencoder: Optional[StackedAutoencoder] = None
        self.classifier: Optional[GradientBoostedClassifier] = None

    def fit(self, dataset: FingerprintDataset) -> "SANGRIALocalizer":
        features = dataset.features
        rng = np.random.default_rng(self.seed)
        self.autoencoder = StackedAutoencoder(
            dataset.num_aps, hidden_dims=self.hidden_dims, rng=rng
        )
        # Noise augmentation during pre-training is SANGRIA's robustness lever.
        self.autoencoder.pretrain(
            features,
            epochs=self.pretrain_epochs,
            lr=self.pretrain_lr,
            corruption_std=self.augmentation_noise,
            seed=self.seed,
        )
        encoded = self.autoencoder.transform(features)
        self.classifier = GradientBoostedClassifier(
            num_rounds=self.num_rounds,
            learning_rate=self.learning_rate,
            max_depth=self.tree_depth,
            max_features=min(16, self.hidden_dims[-1]),
            seed=self.seed,
        )
        self.classifier.fit(encoded, dataset.labels)
        return self

    def predict(self, features: np.ndarray) -> np.ndarray:
        if self.autoencoder is None or self.classifier is None:
            raise RuntimeError("SANGRIA must be fitted before prediction")
        encoded = self.autoencoder.transform(np.asarray(features, dtype=np.float64))
        return self.classifier.predict(encoded)

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Class probabilities from the boosted-tree head."""
        if self.autoencoder is None or self.classifier is None:
            raise RuntimeError("SANGRIA must be fitted before prediction")
        encoded = self.autoencoder.transform(np.asarray(features, dtype=np.float64))
        return self.classifier.predict_proba(encoded)
