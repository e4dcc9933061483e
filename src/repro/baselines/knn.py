"""K-Nearest-Neighbors fingerprint localization (classical baseline [13])."""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..data.fingerprint import FingerprintDataset
from ..interfaces import Localizer
from ..registry import LOCALIZERS

__all__ = ["KNNLocalizer"]


@LOCALIZERS.register("KNN", tags=("baseline", "classical"))
class KNNLocalizer(Localizer):
    """Classify a fingerprint by majority vote among its k nearest neighbours.

    Distances are Euclidean in the normalised RSS feature space, the standard
    choice for RSS fingerprinting (e.g. QA-KNN [13]).
    """

    name = "KNN"

    def __init__(self, k: int = 5) -> None:
        if k <= 0:
            raise ValueError("k must be positive")
        self.k = k
        self._features: np.ndarray | None = None
        self._labels: np.ndarray | None = None
        self._num_classes = 0

    def fit(self, dataset: FingerprintDataset) -> "KNNLocalizer":
        self._features = dataset.features
        self._labels = dataset.labels.copy()
        self._num_classes = dataset.num_classes
        return self

    def _vote_counts(self, features: np.ndarray) -> np.ndarray:
        """Per-class neighbour votes, shape ``(n, num_classes)``, fully vectorised.

        One distance matmul + one scatter-add for the whole batch — no
        per-row Python loop, which is what makes the batched prediction path
        (and therefore serving-side micro-batching) pay off.
        """
        if self._features is None:
            raise RuntimeError("KNN must be fitted before prediction")
        features = np.asarray(features, dtype=np.float64)
        k = min(self.k, self._features.shape[0])
        # Squared Euclidean distances between every query and every stored scan.
        distances = (
            (features ** 2).sum(axis=1, keepdims=True)
            - 2.0 * features @ self._features.T
            + (self._features ** 2).sum(axis=1)[None, :]
        )
        neighbour_indices = np.argpartition(distances, kth=k - 1, axis=1)[:, :k]
        counts = np.zeros((features.shape[0], self._num_classes), dtype=np.int64)
        np.add.at(
            counts,
            (np.arange(features.shape[0])[:, None], self._labels[neighbour_indices]),
            1,
        )
        return counts

    def predict(self, features: np.ndarray) -> np.ndarray:
        # argmax over vote counts: identical tie-breaking (lowest class wins)
        # to the historical per-row bincount loop.
        return self._vote_counts(features).argmax(axis=1).astype(np.int64)

    def state_arrays(self) -> Dict[str, np.ndarray]:
        """Fitted state as named arrays (see ``LocalizationService.save``)."""
        if self._features is None:
            raise RuntimeError("KNN must be fitted before exporting state")
        return {
            "features": self._features,
            "labels": self._labels,
            "num_classes": np.array([self._num_classes], dtype=np.int64),
        }

    def load_state_arrays(self, arrays: Dict[str, np.ndarray]) -> "KNNLocalizer":
        """Restore fitted state previously exported by :meth:`state_arrays`."""
        self._features = np.asarray(arrays["features"], dtype=np.float64)
        self._labels = np.asarray(arrays["labels"], dtype=np.int64)
        self._num_classes = int(np.asarray(arrays["num_classes"]).ravel()[0])
        return self

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Vote fractions among the k nearest neighbours."""
        counts = self._vote_counts(features)
        # Every row's votes sum to k, so dividing by the row sum is the same
        # float division the per-row loop performed.
        totals = counts.sum(axis=1, keepdims=True)
        return counts / np.maximum(totals, 1)
