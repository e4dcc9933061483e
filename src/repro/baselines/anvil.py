"""ANVIL baseline [17]: multi-head attention network for device invariance.

ANVIL embeds the RSS vector, runs a multi-head self-attention layer over a
small sequence of learned feature groups, and classifies the attended
representation.  It provides strong device-heterogeneity and noise
resilience, but — as the paper stresses — has no adversarial defence, which
is what Figs. 6–7 expose.
"""

from __future__ import annotations

import numpy as np

from ..nn import Linear, Module, MultiHeadAttention, Tensor
from ..registry import LOCALIZERS
from .neural import NeuralNetworkLocalizer

__all__ = ["ANVILLocalizer"]


class _ANVILNetwork(Module):
    """Embedding → grouped multi-head self-attention → classification head."""

    def __init__(
        self,
        num_aps: int,
        num_classes: int,
        embed_dim: int = 64,
        num_groups: int = 4,
        num_heads: int = 4,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.num_groups = num_groups
        self.embed_dim = embed_dim
        self.embedding = Linear(num_aps, embed_dim * num_groups, rng=rng)
        self.attention = MultiHeadAttention(embed_dim, num_heads, rng=rng)
        self.hidden = Linear(embed_dim * num_groups, 64, rng=rng)
        self.classifier = Linear(64, num_classes, rng=rng)

    def forward(self, inputs: Tensor) -> Tensor:
        batch = inputs.shape[0]
        embedded = self.embedding(inputs).relu()
        sequence = embedded.reshape(batch, self.num_groups, self.embed_dim)
        attended = self.attention(sequence)
        flattened = attended.reshape(batch, self.num_groups * self.embed_dim)
        hidden = self.hidden(flattened).relu()
        return self.classifier(hidden)


@LOCALIZERS.register("ANVIL", tags=("baseline", "neural", "defended"))
class ANVILLocalizer(NeuralNetworkLocalizer):
    """Multi-head attention localizer (smartphone-invariant, attack-unaware)."""

    name = "ANVIL"

    def __init__(
        self,
        embed_dim: int = 64,
        num_groups: int = 4,
        num_heads: int = 4,
        epochs: int = 60,
        lr: float = 1e-3,
        batch_size: int = 32,
        seed: int = 0,
    ) -> None:
        super().__init__(epochs=epochs, lr=lr, batch_size=batch_size, seed=seed)
        self.embed_dim = embed_dim
        self.num_groups = num_groups
        self.num_heads = num_heads

    def build_network(self, num_aps: int, num_classes: int) -> Module:
        rng = np.random.default_rng(self.seed)
        return _ANVILNetwork(
            num_aps,
            num_classes,
            embed_dim=self.embed_dim,
            num_groups=self.num_groups,
            num_heads=self.num_heads,
            rng=rng,
        )
