"""Statistical adversarial-fingerprint detector: the online serving guard.

Adversarially perturbed fingerprints leave the manifold of physically
plausible RSS patterns: a crafted ±ε shift on a subset of APs moves the query
away from every reference fingerprint the building can actually produce.  The
detector exploits exactly that — it memorises the per-reference-point mean
fingerprints of the offline survey, scores an online query by its mean
absolute deviation from the *nearest* reference, and calibrates the flagging
threshold on the survey's own score distribution (``target_fpr`` controls the
clean false-positive budget, ``margin`` adds headroom for device
heterogeneity).

The guard is cheap — one ``(batch, classes, aps)`` broadcast per request — so
it rides in front of the serving gateway with single-digit-percent latency
overhead (``benchmarks/bench_defenses.py`` gates < 10 %), counts flagged rows
on ``GET /metrics`` in ``action="monitor"`` mode, and aborts the request with
:class:`~repro.defenses.base.GuardRejectedError` (HTTP 403) in
``action="reject"`` mode.
"""

from __future__ import annotations

from typing import Dict, Mapping

import numpy as np

from ..data.fingerprint import FingerprintDataset
from ..registry import DEFENSES
from .base import Defense, GuardReport

__all__ = ["FingerprintDetectorDefense"]


@DEFENSES.register(
    "detector",
    tags=("inference", "detector"),
    aliases=("fingerprint-detector",),
)
class FingerprintDetectorDefense(Defense):
    """Nearest-reference deviation detector for adversarial fingerprints.

    Parameters
    ----------
    target_fpr:
        Calibration quantile: the fraction of *clean survey* fingerprints
        allowed above the raw threshold (before ``margin``).
    margin:
        Multiplicative headroom on the calibrated threshold, absorbing device
        heterogeneity the survey under-represents.
    action:
        ``"monitor"`` (default) only flags and counts; ``"reject"`` makes the
        serving layer abort flagged requests with HTTP 403.
    """

    name = "detector"
    hardens_training = False
    guards_inference = True

    #: Rows scored per chunk when calibrating on campaign-sized surveys.
    _CHUNK = 1024

    def __init__(
        self,
        seed: int = 0,
        target_fpr: float = 0.01,
        margin: float = 1.25,
        action: str = "monitor",
    ) -> None:
        super().__init__(seed)
        if not 0.0 < target_fpr < 1.0:
            raise ValueError("target_fpr must be in (0, 1)")
        if margin <= 0:
            raise ValueError("margin must be positive")
        if action not in ("monitor", "reject"):
            raise ValueError("action must be 'monitor' or 'reject'")
        self.target_fpr = float(target_fpr)
        self.margin = float(margin)
        self.action = action
        self._references: np.ndarray | None = None
        self._threshold: float | None = None

    def config(self) -> Dict[str, object]:
        # action is security-relevant: losing it across persistence would
        # silently downgrade a rejecting guard to monitor-only.
        return {
            "target_fpr": self.target_fpr,
            "margin": self.margin,
            "action": self.action,
        }

    # -- guard protocol --------------------------------------------------
    @property
    def guard_is_fitted(self) -> bool:
        return self._references is not None and self._threshold is not None

    @property
    def rejects(self) -> bool:
        return self.action == "reject"

    def fit_guard(self, dataset: FingerprintDataset) -> "FingerprintDetectorDefense":
        """Calibrate references and threshold on the offline survey."""
        features = dataset.features
        labels = dataset.labels
        num_classes = dataset.num_classes
        references = []
        for class_index in range(num_classes):
            mask = labels == class_index
            if mask.any():
                references.append(features[mask].mean(axis=0))
        if not references:
            raise ValueError("cannot calibrate a detector on an empty survey")
        self._references = np.asarray(references, dtype=np.float64)
        scores = self.scores(features)
        self._threshold = float(
            np.quantile(scores, 1.0 - self.target_fpr) * self.margin
        )
        return self

    def scores(self, features: np.ndarray) -> np.ndarray:
        """Per-row anomaly score: mean |Δ| to the nearest reference fingerprint."""
        if self._references is None:
            raise RuntimeError("detector must be fitted (fit_guard) before scoring")
        features = np.asarray(features, dtype=np.float64)
        if features.ndim == 1:
            features = features[None, :]
        if features.shape[0] == 0:
            # An empty batch may arrive shaped (0, 0); broadcasting it
            # against the references would fail, and there is nothing to score.
            return np.zeros(0, dtype=np.float64)
        if features.shape[0] <= self._CHUNK:
            # Serving-sized batches take the direct path — one broadcast, no
            # preallocation — keeping single-request guard overhead in the
            # tens of microseconds.
            deviations = np.abs(
                features[:, None, :] - self._references[None, :, :]
            ).mean(axis=2)
            return deviations.min(axis=1)
        out = np.empty(features.shape[0], dtype=np.float64)
        for start in range(0, features.shape[0], self._CHUNK):
            chunk = features[start : start + self._CHUNK]
            deviations = np.abs(
                chunk[:, None, :] - self._references[None, :, :]
            ).mean(axis=2)
            out[start : start + chunk.shape[0]] = deviations.min(axis=1)
        return out

    def guard(self, features: np.ndarray) -> GuardReport:
        if not self.guard_is_fitted:
            raise RuntimeError("detector must be fitted (fit_guard) before guarding")
        features = np.asarray(features, dtype=np.float64)
        scores = self.scores(features)
        return GuardReport(
            features=features,
            flagged=scores > self._threshold,
            scores=scores,
        )

    @property
    def threshold(self) -> float:
        if self._threshold is None:
            raise RuntimeError("detector must be fitted (fit_guard) first")
        return self._threshold

    # -- persistence -----------------------------------------------------
    def guard_state_arrays(self) -> Dict[str, np.ndarray]:
        if not self.guard_is_fitted:
            raise RuntimeError("cannot export an unfitted detector guard")
        return {
            "references": self._references,
            "threshold": np.array([self._threshold], dtype=np.float64),
        }

    def load_guard_state(
        self, arrays: Mapping[str, np.ndarray]
    ) -> "FingerprintDetectorDefense":
        self._references = np.asarray(arrays["references"], dtype=np.float64)
        self._threshold = float(np.asarray(arrays["threshold"]).ravel()[0])
        return self
