"""WiDeep baseline [14]: de-noising autoencoder + Gaussian Process Classifier.

WiDeep couples a de-noising autoencoder (handling benign RSS noise) with a
Gaussian Process Classifier over the learned representation.  The GPC stage is
highly sensitive to distribution shift, which is why the paper reports WiDeep
degrading the most under adversarial perturbations (6.03× worse mean error
than CALLOC).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..data.fingerprint import FingerprintDataset
from ..interfaces import Localizer
from ..registry import LOCALIZERS
from .autoencoder import DenoisingAutoencoder
from .gpc import GaussianProcessLocalizer

__all__ = ["WiDeepLocalizer"]


@LOCALIZERS.register("WiDeep", tags=("baseline", "defended"))
class WiDeepLocalizer(Localizer):
    """De-noising autoencoder front-end with a GPC classification head."""

    name = "WiDeep"

    def __init__(
        self,
        hidden_dims: Sequence[int] = (128,),
        corruption_std: float = 0.1,
        pretrain_epochs: int = 30,
        pretrain_lr: float = 1e-3,
        gpc_length_scale: float = 1.0,
        gpc_noise: float = 1e-2,
        seed: int = 0,
    ) -> None:
        self.hidden_dims = tuple(hidden_dims)
        self.corruption_std = corruption_std
        self.pretrain_epochs = pretrain_epochs
        self.pretrain_lr = pretrain_lr
        self.gpc_length_scale = gpc_length_scale
        self.gpc_noise = gpc_noise
        self.seed = seed
        self.autoencoder: Optional[DenoisingAutoencoder] = None
        self.classifier: Optional[GaussianProcessLocalizer] = None
        self._latent_dataset: Optional[FingerprintDataset] = None

    def fit(self, dataset: FingerprintDataset) -> "WiDeepLocalizer":
        rng = np.random.default_rng(self.seed)
        self.autoencoder = DenoisingAutoencoder(
            dataset.num_aps,
            hidden_dims=self.hidden_dims,
            corruption_std=self.corruption_std,
            rng=rng,
        )
        self.autoencoder.pretrain(
            dataset.features,
            epochs=self.pretrain_epochs,
            lr=self.pretrain_lr,
            seed=self.seed,
        )
        encoded = self.autoencoder.transform(dataset.features)
        # The GPC head consumes the latent representation.  We wrap the latent
        # vectors in a FingerprintDataset so the shared GPC implementation can
        # be reused unchanged (its features are already normalised-ish).
        latent_span = max(np.abs(encoded).max(), 1e-6)
        self._latent_scale = latent_span
        latent_dataset = FingerprintDataset(
            rss_dbm=self._latent_to_dbm(encoded),
            labels=dataset.labels,
            rp_positions=dataset.rp_positions,
            building=dataset.building,
            devices=dataset.devices,
        )
        self.classifier = GaussianProcessLocalizer(
            length_scale=self.gpc_length_scale, noise=self.gpc_noise
        )
        self.classifier.fit(latent_dataset)
        return self

    def _latent_to_dbm(self, encoded: np.ndarray) -> np.ndarray:
        """Map latent activations into the dBm range expected by the dataset container."""
        normalised = np.clip(encoded / (2.0 * self._latent_scale) + 0.5, 0.0, 1.0)
        return normalised * 100.0 - 100.0

    def _encode(self, features: np.ndarray) -> np.ndarray:
        encoded = self.autoencoder.transform(np.asarray(features, dtype=np.float64))
        return np.clip(encoded / (2.0 * self._latent_scale) + 0.5, 0.0, 1.0)

    def predict(self, features: np.ndarray) -> np.ndarray:
        if self.autoencoder is None or self.classifier is None:
            raise RuntimeError("WiDeep must be fitted before prediction")
        return self.classifier.predict(self._encode(features))

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Class probabilities from the GPC head."""
        if self.autoencoder is None or self.classifier is None:
            raise RuntimeError("WiDeep must be fitted before prediction")
        return self.classifier.predict_proba(self._encode(features))

    # ------------------------------------------------------------------
    # White-box gradient access: the de-noising encoder is differentiable via
    # the autograd substrate and the GPC head has a closed-form gradient, so a
    # white-box adversary can chain the two — no surrogate is required.
    # ------------------------------------------------------------------
    def loss_gradient(self, features: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """Gradient of the GPC cross-entropy w.r.t. the raw RSS features."""
        if self.autoencoder is None or self.classifier is None:
            raise RuntimeError("WiDeep must be fitted before computing gradients")
        from ..nn import Tensor, fastpath

        features = np.asarray(features, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.int64)
        self.autoencoder.eval()
        chain = fastpath.compile_chain(self.autoencoder.encoder)
        if chain is not None:
            latent_data, tape = fastpath.forward_tape(chain, features)
        else:
            inputs = Tensor(features, requires_grad=True)
            latent = self.autoencoder.encode(inputs)
            latent_data = latent.data

        # The GPC head consumes the clipped/rescaled latent representation.
        scale = 1.0 / (2.0 * self._latent_scale)
        latent_scaled = np.clip(latent_data * scale + 0.5, 0.0, 1.0)
        head_gradient = self.classifier.loss_gradient(latent_scaled, labels)
        inside = ((latent_data * scale + 0.5) > 0.0) & ((latent_data * scale + 0.5) < 1.0)
        latent_gradient = head_gradient * inside * scale

        if chain is not None:
            return fastpath.backward_tape(
                chain, tape, latent_gradient, accumulate_params=False
            ).copy()
        latent.backward(latent_gradient)
        return inputs.grad.copy()
