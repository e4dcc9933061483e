"""Fingerprint dataset containers and feature normalisation.

A fingerprint is one Wi-Fi scan: the vector of RSS values (dBm) observed from
every visible access point at a known reference point.  This module provides
the :class:`FingerprintDataset` container used throughout the library, plus
the normalisation convention shared by the models and the adversarial
attacks:

* raw RSS lives in ``[-100, 0]`` dBm, with ``-100`` meaning "not detected";
* model inputs are normalised to ``[0, 1]`` via ``(rss + 100) / 100``;
* adversarial perturbation strengths ε (0.1–0.5 in the paper) are expressed in
  this normalised space, i.e. ε = 0.1 corresponds to a 10 dB manipulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .propagation import RSS_CEIL_DBM, RSS_FLOOR_DBM

__all__ = [
    "normalize_rss",
    "denormalize_rss",
    "require_finite",
    "FingerprintDataset",
    "train_test_summary",
]


def normalize_rss(rss_dbm: np.ndarray) -> np.ndarray:
    """Map RSS in ``[-100, 0]`` dBm to normalised features in ``[0, 1]``."""
    rss_dbm = np.asarray(rss_dbm, dtype=np.float64)
    span = RSS_CEIL_DBM - RSS_FLOOR_DBM
    return np.clip((rss_dbm - RSS_FLOOR_DBM) / span, 0.0, 1.0)


def denormalize_rss(features: np.ndarray) -> np.ndarray:
    """Inverse of :func:`normalize_rss`: map ``[0, 1]`` features back to dBm."""
    features = np.asarray(features, dtype=np.float64)
    span = RSS_CEIL_DBM - RSS_FLOOR_DBM
    return np.clip(features, 0.0, 1.0) * span + RSS_FLOOR_DBM


def require_finite(features: np.ndarray) -> None:
    """Raise :class:`ValueError` naming the rows of a 2-D batch that hold a
    NaN or infinite reading (a NaN row would otherwise score as RP 0, the
    argmax of all-NaN scores, with a null error estimate)."""
    non_finite = np.flatnonzero(~np.isfinite(features).all(axis=1))
    if non_finite.size:
        raise ValueError(
            f"{non_finite.size} fingerprint(s) hold NaN or infinite readings "
            f"(rows {non_finite[:8].tolist()}{'…' if non_finite.size > 8 else ''})"
        )


@dataclass
class FingerprintDataset:
    """A labelled set of RSS fingerprints from one building.

    Attributes
    ----------
    rss_dbm:
        Raw fingerprints, shape ``(num_samples, num_aps)``, in dBm.
    labels:
        Reference-point class index per sample, shape ``(num_samples,)``.
    rp_positions:
        Coordinates (meters) of every reference-point class,
        shape ``(num_classes, 2)``.  Needed to convert a classification into a
        localization error in meters.
    building:
        Name of the building the fingerprints were collected in.
    devices:
        Device acronym per sample (length ``num_samples``); a single string is
        broadcast to all samples.
    """

    rss_dbm: np.ndarray
    labels: np.ndarray
    rp_positions: np.ndarray
    building: str = ""
    devices: np.ndarray = field(default_factory=lambda: np.array([], dtype=object))

    def __post_init__(self) -> None:
        self.rss_dbm = np.asarray(self.rss_dbm, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.rp_positions = np.asarray(self.rp_positions, dtype=np.float64)
        if self.rss_dbm.ndim != 2:
            raise ValueError(f"rss_dbm must be 2-D, got shape {self.rss_dbm.shape}")
        if self.labels.shape[0] != self.rss_dbm.shape[0]:
            raise ValueError("labels and rss_dbm disagree on the number of samples")
        if self.rp_positions.ndim != 2 or self.rp_positions.shape[1] != 2:
            raise ValueError("rp_positions must have shape (num_classes, 2)")
        if self.labels.size and self.labels.max() >= self.rp_positions.shape[0]:
            raise ValueError("label index exceeds the number of reference points")
        if isinstance(self.devices, str):
            self.devices = np.array([self.devices] * self.num_samples, dtype=object)
        else:
            self.devices = np.asarray(self.devices, dtype=object)
            if self.devices.size == 0:
                self.devices = np.array(["unknown"] * self.num_samples, dtype=object)
            elif self.devices.shape[0] != self.num_samples:
                raise ValueError("devices must have one entry per sample")

    # ------------------------------------------------------------------
    @property
    def num_samples(self) -> int:
        return int(self.rss_dbm.shape[0])

    @property
    def num_aps(self) -> int:
        return int(self.rss_dbm.shape[1])

    @property
    def num_classes(self) -> int:
        return int(self.rp_positions.shape[0])

    def __len__(self) -> int:
        return self.num_samples

    # ------------------------------------------------------------------
    @property
    def features(self) -> np.ndarray:
        """Normalised features in ``[0, 1]`` (shape ``(num_samples, num_aps)``)."""
        return normalize_rss(self.rss_dbm)

    def positions_of(self, labels: Optional[np.ndarray] = None) -> np.ndarray:
        """Coordinates (meters) of the given labels (defaults to own labels)."""
        labels = self.labels if labels is None else np.asarray(labels, dtype=np.int64)
        return self.rp_positions[labels]

    # ------------------------------------------------------------------
    def subset(self, indices: np.ndarray) -> "FingerprintDataset":
        """Return a new dataset restricted to ``indices`` (keeps all classes)."""
        indices = np.asarray(indices)
        return FingerprintDataset(
            rss_dbm=self.rss_dbm[indices],
            labels=self.labels[indices],
            rp_positions=self.rp_positions,
            building=self.building,
            devices=self.devices[indices],
        )

    def for_device(self, acronym: str) -> "FingerprintDataset":
        """Return the samples collected with a specific device."""
        mask = self.devices == acronym
        return self.subset(np.nonzero(mask)[0])

    def shuffled(self, rng: np.random.Generator) -> "FingerprintDataset":
        """Return a copy with the sample order permuted."""
        order = rng.permutation(self.num_samples)
        return self.subset(order)

    def with_rss(self, rss_dbm: np.ndarray) -> "FingerprintDataset":
        """Return a copy with the RSS matrix replaced (e.g. after an attack)."""
        return FingerprintDataset(
            rss_dbm=np.asarray(rss_dbm, dtype=np.float64),
            labels=self.labels.copy(),
            rp_positions=self.rp_positions,
            building=self.building,
            devices=self.devices.copy(),
        )

    @staticmethod
    def concatenate(datasets: Sequence["FingerprintDataset"]) -> "FingerprintDataset":
        """Concatenate datasets that share a building and AP layout."""
        if not datasets:
            raise ValueError("cannot concatenate an empty list of datasets")
        first = datasets[0]
        for other in datasets[1:]:
            if other.num_aps != first.num_aps:
                raise ValueError("datasets disagree on the number of access points")
            if other.rp_positions.shape != first.rp_positions.shape:
                raise ValueError("datasets disagree on the reference-point layout")
        return FingerprintDataset(
            rss_dbm=np.concatenate([d.rss_dbm for d in datasets], axis=0),
            labels=np.concatenate([d.labels for d in datasets], axis=0),
            rp_positions=first.rp_positions,
            building=first.building,
            devices=np.concatenate([d.devices for d in datasets], axis=0),
        )

    # ------------------------------------------------------------------
    def class_counts(self) -> np.ndarray:
        """Number of samples per reference-point class."""
        return np.bincount(self.labels, minlength=self.num_classes)

    def summary(self) -> str:
        """One-line human-readable description."""
        devices = sorted(set(self.devices.tolist()))
        return (
            f"{self.building or 'dataset'}: {self.num_samples} fingerprints, "
            f"{self.num_aps} APs, {self.num_classes} RPs, devices={devices}"
        )


def train_test_summary(train: FingerprintDataset, test: FingerprintDataset) -> str:
    """Describe a train/test pair (used by examples and reports)."""
    return (
        f"train[{train.summary()}]\n"
        f"test [{test.summary()}]"
    )
