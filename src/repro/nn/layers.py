"""Neural-network building blocks for the ``repro.nn`` substrate.

The module system mirrors the familiar ``torch.nn`` conventions that the
CALLOC paper implicitly assumes: a :class:`Module` base class with recursive
parameter discovery, a training/evaluation mode switch (needed by dropout and
Gaussian-noise layers), and a small set of layers sufficient for every model
in the paper — the CALLOC hyperspace embeddings and attention network, the
DNN/CNN baselines, ANVIL's multi-head attention, SANGRIA's stacked
autoencoder, and WiDeep's de-noising autoencoder.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import init
from .tensor import Tensor

__all__ = [
    "Parameter",
    "Module",
    "Linear",
    "ReLU",
    "LeakyReLU",
    "Tanh",
    "Sigmoid",
    "Softmax",
    "Dropout",
    "GaussianNoise",
    "LayerNorm",
    "Flatten",
    "Sequential",
    "Conv1d",
    "MaxPool1d",
    "Embedding",
]


class Parameter(Tensor):
    """A :class:`Tensor` that is registered as a trainable model parameter."""

    def __init__(self, data, name: Optional[str] = None) -> None:
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for all neural-network modules.

    Subclasses register :class:`Parameter` and sub-:class:`Module` instances
    simply by assigning them to attributes; :meth:`parameters` and
    :meth:`state_dict` discover them recursively.
    """

    def __init__(self) -> None:
        self._parameters: Dict[str, Parameter] = {}
        self._modules: Dict[str, "Module"] = {}
        self.training = True

    # -- attribute-based registration ---------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", {})[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", {})[name] = value
        object.__setattr__(self, name, value)

    # -- forward -------------------------------------------------------
    def forward(self, *inputs: Tensor, **kwargs) -> Tensor:
        raise NotImplementedError

    def __call__(self, *inputs: Tensor, **kwargs) -> Tensor:
        return self.forward(*inputs, **kwargs)

    # -- parameter management -------------------------------------------
    def parameters(self) -> List[Parameter]:
        """Return all trainable parameters of this module and its children."""
        params: List[Parameter] = list(self._parameters.values())
        for module in self._modules.values():
            params.extend(module.parameters())
        return params

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(qualified_name, parameter)`` pairs recursively."""
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for module_name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{module_name}.")

    def modules(self) -> Iterator["Module"]:
        """Yield this module and all sub-modules depth-first."""
        yield self
        for module in self._modules.values():
            yield from module.modules()

    def zero_grad(self) -> None:
        """Reset gradients of every parameter."""
        for param in self.parameters():
            param.zero_grad()

    # -- train / eval mode ----------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        """Switch the module (and children) to training mode."""
        self.training = mode
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self) -> "Module":
        """Switch the module (and children) to evaluation mode."""
        return self.train(False)

    # -- serialization ----------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Return a flat mapping of qualified parameter names to array copies."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load parameter values from a mapping produced by :meth:`state_dict`."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)} unexpected={sorted(unexpected)}"
            )
        for name, param in own.items():
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for '{name}': expected {param.data.shape}, got {value.shape}"
                )
            param.data = value.copy()

    def num_parameters(self) -> int:
        """Total number of trainable scalar parameters."""
        return sum(param.size for param in self.parameters())


class Linear(Module):
    """Fully-connected affine layer ``y = x W + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
        initializer: str = "xavier_uniform",
    ) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("Linear layer dimensions must be positive")
        rng = rng if rng is not None else np.random.default_rng(0)
        init_fn = getattr(init, initializer)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init_fn(in_features, out_features, rng), name="weight")
        self.bias = Parameter(init.zeros(out_features), name="bias") if bias else None

    def forward(self, inputs: Tensor) -> Tensor:
        output = inputs.matmul(self.weight)
        if self.bias is not None:
            output = output + self.bias
        return output

    def __repr__(self) -> str:
        return f"Linear(in={self.in_features}, out={self.out_features}, bias={self.bias is not None})"


class ReLU(Module):
    """Rectified linear unit activation."""

    def forward(self, inputs: Tensor) -> Tensor:
        return inputs.relu()


class LeakyReLU(Module):
    """Leaky rectified linear unit activation."""

    def __init__(self, negative_slope: float = 0.01) -> None:
        super().__init__()
        self.negative_slope = negative_slope

    def forward(self, inputs: Tensor) -> Tensor:
        return inputs.leaky_relu(self.negative_slope)


class Tanh(Module):
    """Hyperbolic tangent activation."""

    def forward(self, inputs: Tensor) -> Tensor:
        return inputs.tanh()


class Sigmoid(Module):
    """Logistic sigmoid activation."""

    def forward(self, inputs: Tensor) -> Tensor:
        return inputs.sigmoid()


class Softmax(Module):
    """Softmax along a fixed axis (default: the last one)."""

    def __init__(self, axis: int = -1) -> None:
        super().__init__()
        self.axis = axis

    def forward(self, inputs: Tensor) -> Tensor:
        return inputs.softmax(axis=self.axis)


class Dropout(Module):
    """Inverted dropout; active only in training mode.

    CALLOC uses a dropout rate of 0.2 inside the original-data embedding
    network (Sec. IV.B / V.A) to prevent over-reliance on individual access
    points.
    """

    def __init__(self, rate: float = 0.2, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self.rng = rng if rng is not None else np.random.default_rng(0)

    def forward(self, inputs: Tensor) -> Tensor:
        if not self.training or self.rate == 0.0:
            return inputs
        return inputs.dropout(self.rate, self.rng)


class GaussianNoise(Module):
    """Additive zero-mean Gaussian noise; active only in training mode.

    CALLOC injects Gaussian noise with standard deviation 0.32 into the
    original-data hyperspace embedding (Sec. V.A) to simulate environmental
    and device variations during training.
    """

    def __init__(self, std: float = 0.32, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if std < 0:
            raise ValueError(f"noise std must be non-negative, got {std}")
        self.std = std
        self.rng = rng if rng is not None else np.random.default_rng(0)

    def forward(self, inputs: Tensor) -> Tensor:
        if not self.training or self.std == 0.0:
            return inputs
        noise = Tensor(self.rng.normal(0.0, self.std, size=inputs.shape))
        return inputs + noise


class LayerNorm(Module):
    """Layer normalisation over the last dimension."""

    def __init__(self, features: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.features = features
        self.eps = eps
        self.gamma = Parameter(np.ones(features), name="gamma")
        self.beta = Parameter(np.zeros(features), name="beta")

    def forward(self, inputs: Tensor) -> Tensor:
        mean = inputs.mean(axis=-1, keepdims=True)
        centred = inputs - mean
        variance = (centred * centred).mean(axis=-1, keepdims=True)
        normalised = centred / ((variance + self.eps) ** 0.5)
        return normalised * self.gamma + self.beta


class Flatten(Module):
    """Flatten every dimension after the leading batch dimension."""

    def forward(self, inputs: Tensor) -> Tensor:
        return inputs.reshape(inputs.shape[0], -1)


class Sequential(Module):
    """Compose modules, applying them in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self._ordered: List[Module] = []
        for index, module in enumerate(modules):
            setattr(self, f"layer_{index}", module)
            self._ordered.append(module)

    def forward(self, inputs: Tensor) -> Tensor:
        output = inputs
        for module in self._ordered:
            output = module(output)
        return output

    def __iter__(self) -> Iterator[Module]:
        return iter(self._ordered)

    def __len__(self) -> int:
        return len(self._ordered)

    def __getitem__(self, index: int) -> Module:
        return self._ordered[index]

    def append(self, module: Module) -> "Sequential":
        """Append another module to the pipeline."""
        setattr(self, f"layer_{len(self._ordered)}", module)
        self._ordered.append(module)
        return self


#: Cached sliding-window gather indices, shared by every Conv1d/MaxPool1d in
#: the process.  Entries are deterministic per key and marked read-only, but
#: queue workers running as threads of one process mutate the dict
#: concurrently, so the insert is lock-guarded (the repro-lint R4
#: shared-state rule enforces this).
_WINDOW_INDEX_CACHE: Dict[tuple, np.ndarray] = {}
_WINDOW_INDEX_LOCK = threading.Lock()


def _window_index(out_length: int, kernel_size: int, stride: int) -> np.ndarray:
    """``(out_length, kernel_size)`` gather index for sliding-window unfolds."""
    key = (out_length, kernel_size, stride)
    cached = _WINDOW_INDEX_CACHE.get(key)
    if cached is None:
        cached = (
            np.arange(out_length)[:, None] * stride + np.arange(kernel_size)[None, :]
        )
        cached.setflags(write=False)
        with _WINDOW_INDEX_LOCK:
            _WINDOW_INDEX_CACHE[key] = cached
    return cached


class Conv1d(Module):
    """1-D convolution over RSS vectors (used by the CNN baseline [16]).

    The input is expected with shape ``(batch, channels, length)``.  The
    implementation unfolds the input into patches and performs the
    convolution as a single matrix multiplication, which keeps it fully
    differentiable through the :class:`Tensor` autograd engine.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if kernel_size <= 0 or stride <= 0:
            raise ValueError("kernel_size and stride must be positive")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        fan_in = in_channels * kernel_size
        self.weight = Parameter(
            init.he_normal(fan_in, out_channels, rng).reshape(fan_in, out_channels),
            name="weight",
        )
        self.bias = Parameter(init.zeros(out_channels), name="bias")

    def output_length(self, length: int) -> int:
        """Spatial output length for an input of ``length`` samples."""
        return (length + 2 * self.padding - self.kernel_size) // self.stride + 1

    def forward(self, inputs: Tensor) -> Tensor:
        batch, channels, length = inputs.shape
        if channels != self.in_channels:
            raise ValueError(f"expected {self.in_channels} input channels, got {channels}")
        if self.padding > 0:
            left = Tensor(np.zeros((batch, channels, self.padding)))
            right = Tensor(np.zeros((batch, channels, self.padding)))
            inputs = Tensor.concatenate([left, inputs, right], axis=2)
            length = length + 2 * self.padding
        out_length = (length - self.kernel_size) // self.stride + 1
        if out_length <= 0:
            raise ValueError("convolution output length is non-positive; reduce kernel/stride")
        # One fancy-index gather unfolds every window at once; its backward
        # scatter-adds window gradients in ascending window order, which is
        # exactly the order the per-position slicing loop accumulated them
        # (autograd processes the patch nodes first-created-first), so the
        # overlapping-window gradient sums are bit-identical to the loop.
        windows = _window_index(out_length, self.kernel_size, self.stride)
        patches = inputs[:, :, windows]  # (batch, C, out_length, K)
        stacked = patches.transpose(0, 2, 1, 3).reshape(
            batch, out_length, channels * self.kernel_size
        )
        output = stacked.matmul(self.weight) + self.bias  # (batch, out_length, out_channels)
        return output.transpose(0, 2, 1)  # (batch, out_channels, out_length)


class MaxPool1d(Module):
    """1-D max pooling over the trailing (length) dimension."""

    def __init__(self, kernel_size: int, stride: Optional[int] = None) -> None:
        super().__init__()
        if kernel_size <= 0:
            raise ValueError("kernel_size must be positive")
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size

    def forward(self, inputs: Tensor) -> Tensor:
        batch, channels, length = inputs.shape
        out_length = (length - self.kernel_size) // self.stride + 1
        if out_length <= 0:
            raise ValueError("pooling output length is non-positive")
        # Same gather trick as Conv1d: one indexed read replaces the
        # per-position slicing loop, and the max/tie-splitting backward runs
        # per window on the same values, so gradients match the loop bitwise.
        windows = _window_index(out_length, self.kernel_size, self.stride)
        return inputs[:, :, windows].max(axis=3)


class Embedding(Module):
    """Lookup table mapping integer indices to dense vectors."""

    def __init__(self, num_embeddings: int, embedding_dim: int, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = Parameter(rng.normal(0.0, 0.02, size=(num_embeddings, embedding_dim)), name="weight")

    def forward(self, indices) -> Tensor:
        index_array = np.asarray(indices, dtype=np.int64)
        return self.weight[index_array]
