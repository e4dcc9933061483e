"""Deep neural network (MLP) fingerprint localization (baseline [15])."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..nn import Dropout, Linear, Module, ReLU, Sequential
from ..registry import LOCALIZERS
from .neural import NeuralNetworkLocalizer

__all__ = ["DNNLocalizer"]


@LOCALIZERS.register("DNN", tags=("baseline", "neural"))
class DNNLocalizer(NeuralNetworkLocalizer):
    """Plain multi-layer perceptron over normalised RSS features."""

    name = "DNN"

    def __init__(
        self,
        hidden_dims: Sequence[int] = (128, 64),
        dropout: float = 0.1,
        epochs: int = 60,
        lr: float = 1e-3,
        batch_size: int = 32,
        seed: int = 0,
    ) -> None:
        super().__init__(epochs=epochs, lr=lr, batch_size=batch_size, seed=seed)
        self.hidden_dims = tuple(hidden_dims)
        self.dropout = dropout

    def build_network(self, num_aps: int, num_classes: int) -> Module:
        rng = np.random.default_rng(self.seed)
        layers = []
        previous = num_aps
        for width in self.hidden_dims:
            layers.append(Linear(previous, width, rng=rng, initializer="he_normal"))
            layers.append(ReLU())
            if self.dropout > 0:
                layers.append(Dropout(self.dropout, rng=rng))
            previous = width
        layers.append(Linear(previous, num_classes, rng=rng))
        return Sequential(*layers)
