"""Gaussian Naive Bayes fingerprint localization (classical baseline [12])."""

from __future__ import annotations

import numpy as np

from ..data.fingerprint import FingerprintDataset
from ..interfaces import Localizer
from ..registry import LOCALIZERS

__all__ = ["NaiveBayesLocalizer"]


@LOCALIZERS.register("NaiveBayes", tags=("baseline", "classical"))
class NaiveBayesLocalizer(Localizer):
    """Attribute-independent Gaussian Naive Bayes over normalised RSS features."""

    name = "NaiveBayes"

    def __init__(self, var_smoothing: float = 1e-3) -> None:
        if var_smoothing <= 0:
            raise ValueError("var_smoothing must be positive")
        self.var_smoothing = var_smoothing
        self._means: np.ndarray | None = None
        self._variances: np.ndarray | None = None
        self._log_priors: np.ndarray | None = None

    def fit(self, dataset: FingerprintDataset) -> "NaiveBayesLocalizer":
        features = dataset.features
        labels = dataset.labels
        num_classes = dataset.num_classes
        num_aps = dataset.num_aps
        self._means = np.zeros((num_classes, num_aps))
        self._variances = np.ones((num_classes, num_aps))
        counts = np.bincount(labels, minlength=num_classes).astype(np.float64)
        for class_index in range(num_classes):
            mask = labels == class_index
            if not mask.any():
                continue
            class_features = features[mask]
            self._means[class_index] = class_features.mean(axis=0)
            self._variances[class_index] = class_features.var(axis=0) + self.var_smoothing
        priors = np.clip(counts / max(counts.sum(), 1.0), 1e-12, None)
        self._log_priors = np.log(priors)
        return self

    def _log_likelihood(self, features: np.ndarray) -> np.ndarray:
        features = np.asarray(features, dtype=np.float64)
        # (num_samples, num_classes, num_aps) broadcasting of the Gaussian log-pdf.
        diff = features[:, None, :] - self._means[None, :, :]
        log_pdf = -0.5 * (
            np.log(2.0 * np.pi * self._variances)[None, :, :]
            + diff ** 2 / self._variances[None, :, :]
        )
        return log_pdf.sum(axis=2) + self._log_priors[None, :]

    def predict(self, features: np.ndarray) -> np.ndarray:
        if self._means is None:
            raise RuntimeError("NaiveBayes must be fitted before prediction")
        return self._log_likelihood(features).argmax(axis=1)

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Posterior class probabilities."""
        if self._means is None:
            raise RuntimeError("NaiveBayes must be fitted before prediction")
        log_likelihood = self._log_likelihood(features)
        shifted = log_likelihood - log_likelihood.max(axis=1, keepdims=True)
        exps = np.exp(shifted)
        return exps / exps.sum(axis=1, keepdims=True)
