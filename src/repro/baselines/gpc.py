"""Gaussian-process classifier for fingerprint localization (baseline [14]).

A full variational multi-class GP classifier is far heavier than what the
paper's comparison requires; the standard lightweight approximation — used by
several indoor-localization works — is one-vs-rest GP *regression* on one-hot
labels with an RBF kernel, taking the argmax of the per-class posterior means.
The model retains the property the paper leans on (WiDeep/GPC being
"extremely sensitive to noise") because the kernel interpolates the training
scans directly.
"""

from __future__ import annotations

import numpy as np

from ..data.fingerprint import FingerprintDataset
from ..interfaces import Localizer
from ..registry import LOCALIZERS

__all__ = ["GaussianProcessLocalizer"]


@LOCALIZERS.register("GPC", tags=("baseline", "classical"))
class GaussianProcessLocalizer(Localizer):
    """One-vs-rest GP regression with an RBF kernel over RSS features."""

    name = "GPC"

    def __init__(self, length_scale: float = 1.0, signal_variance: float = 1.0, noise: float = 1e-2) -> None:
        if length_scale <= 0 or signal_variance <= 0 or noise <= 0:
            raise ValueError("kernel hyper-parameters must be positive")
        self.length_scale = length_scale
        self.signal_variance = signal_variance
        self.noise = noise
        self._train_features: np.ndarray | None = None
        self._alpha: np.ndarray | None = None
        self._num_classes = 0

    # ------------------------------------------------------------------
    def _kernel(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        sq_dist = (
            (a ** 2).sum(axis=1, keepdims=True)
            - 2.0 * a @ b.T
            + (b ** 2).sum(axis=1)[None, :]
        )
        sq_dist = np.clip(sq_dist, 0.0, None)
        return self.signal_variance * np.exp(-0.5 * sq_dist / self.length_scale ** 2)

    # ------------------------------------------------------------------
    def fit(self, dataset: FingerprintDataset) -> "GaussianProcessLocalizer":
        # Imported here, not at module level: resolving any localizer loads
        # this module, and scipy is ~0.24 s and ~20 MB that only a fit needs.
        from scipy.linalg import cho_factor, cho_solve

        features = dataset.features
        labels = dataset.labels
        self._num_classes = dataset.num_classes
        one_hot = np.zeros((features.shape[0], self._num_classes))
        one_hot[np.arange(features.shape[0]), labels] = 1.0
        gram = self._kernel(features, features)
        gram[np.diag_indices_from(gram)] += self.noise
        factor = cho_factor(gram, lower=True)
        self._alpha = cho_solve(factor, one_hot)
        self._train_features = features
        return self

    def decision_function(self, features: np.ndarray) -> np.ndarray:
        """Posterior mean score per class."""
        if self._alpha is None:
            raise RuntimeError("GPC must be fitted before prediction")
        cross = self._kernel(np.asarray(features, dtype=np.float64), self._train_features)
        return cross @ self._alpha

    def predict(self, features: np.ndarray) -> np.ndarray:
        return self.decision_function(features).argmax(axis=1)

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Softmax-normalised posterior means (a calibrated-enough proxy)."""
        scores = self.decision_function(features)
        shifted = scores - scores.max(axis=1, keepdims=True)
        exps = np.exp(shifted / self._PROBA_TEMPERATURE)
        return exps / exps.sum(axis=1, keepdims=True)

    #: Temperature used to turn posterior-mean scores into probabilities.
    _PROBA_TEMPERATURE = 0.1

    # ------------------------------------------------------------------
    # White-box gradient access (GradientProvider protocol).  The RBF-kernel
    # posterior mean is differentiable in closed form, so a white-box
    # adversary does not need a surrogate for GPC-based localizers — this is
    # exactly the noise sensitivity the paper attributes to WiDeep's GPC head.
    # ------------------------------------------------------------------
    def loss_gradient(self, features: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """Gradient of the softmax cross-entropy of the posterior scores."""
        if self._alpha is None:
            raise RuntimeError("GPC must be fitted before computing gradients")
        features = np.asarray(features, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.int64)
        scores = self.decision_function(features)
        shifted = scores - scores.max(axis=1, keepdims=True)
        exps = np.exp(shifted / self._PROBA_TEMPERATURE)
        probabilities = exps / exps.sum(axis=1, keepdims=True)
        one_hot = np.zeros_like(probabilities)
        one_hot[np.arange(labels.shape[0]), labels] = 1.0
        score_gradient = (probabilities - one_hot) / self._PROBA_TEMPERATURE

        # d k(x, x_i) / d x = k(x, x_i) * (x_i - x) / length_scale^2
        cross = self._kernel(features, self._train_features)  # (n, m)
        # Per-sample weights over the training scans: w_i = sum_j alpha[i, j] * dL/ds_j.
        weights = score_gradient @ self._alpha.T  # (n, m)
        weighted = cross * weights
        gradient = (
            weighted @ self._train_features - weighted.sum(axis=1, keepdims=True) * features
        ) / (self.length_scale ** 2)
        return gradient
