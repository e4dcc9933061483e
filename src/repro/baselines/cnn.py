"""Convolutional neural network fingerprint localization (baseline [16]).

Following the CNN-for-RSSI approach of [16], the AP vector is treated as a
1-D signal: two convolution + pooling stages extract local co-occurrence
patterns between APs, followed by a fully connected classification head.
"""

from __future__ import annotations

import numpy as np

from ..nn import Conv1d, Flatten, Linear, MaxPool1d, Module, ReLU, Sequential, Tensor
from ..registry import LOCALIZERS
from .neural import NeuralNetworkLocalizer

__all__ = ["CNNLocalizer"]


class _ReshapeTo1d(Module):
    """Insert a channel dimension: ``(batch, aps)`` → ``(batch, 1, aps)``."""

    def forward(self, inputs: Tensor) -> Tensor:
        batch, aps = inputs.shape
        return inputs.reshape(batch, 1, aps)


@LOCALIZERS.register("CNN", tags=("baseline", "neural"))
class CNNLocalizer(NeuralNetworkLocalizer):
    """1-D CNN over the RSS vector with a dense classification head."""

    name = "CNN"

    def __init__(
        self,
        channels: int = 8,
        kernel_size: int = 5,
        epochs: int = 40,
        lr: float = 1e-3,
        batch_size: int = 32,
        seed: int = 0,
    ) -> None:
        super().__init__(epochs=epochs, lr=lr, batch_size=batch_size, seed=seed)
        self.channels = channels
        self.kernel_size = kernel_size

    def build_network(self, num_aps: int, num_classes: int) -> Module:
        rng = np.random.default_rng(self.seed)
        conv1 = Conv1d(1, self.channels, self.kernel_size, stride=2, padding=2, rng=rng)
        pool1 = MaxPool1d(2)
        conv2 = Conv1d(self.channels, self.channels * 2, 3, stride=1, padding=1, rng=rng)
        pool2 = MaxPool1d(2)
        # Trace the spatial dimension through the convolution/pooling stack.
        length = conv1.output_length(num_aps)
        length = (length - pool1.kernel_size) // pool1.stride + 1
        length = conv2.output_length(length)
        length = (length - pool2.kernel_size) // pool2.stride + 1
        flat_dim = self.channels * 2 * length
        return Sequential(
            _ReshapeTo1d(),
            conv1,
            ReLU(),
            pool1,
            conv2,
            ReLU(),
            pool2,
            Flatten(),
            Linear(flat_dim, 64, rng=rng, initializer="he_normal"),
            ReLU(),
            Linear(64, num_classes, rng=rng),
        )
