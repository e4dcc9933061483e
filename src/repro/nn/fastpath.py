"""Fused forward/backward kernels for plain ``Sequential`` MLP pipelines.

The reverse-mode autograd in :mod:`repro.nn.tensor` already executes one
whole-array numpy operation per graph node, but every node also pays Python
bookkeeping: a ``Tensor`` allocation, parent tracking, a closure, the
topological sort and ``_unbroadcast`` checks during ``backward``.  For the
small batches this repository trains on (27–64 rows), that bookkeeping — not
the numpy work — dominates runtime, which is why parallel engine runs were
slower than serial execution (work units were mostly interpreter overhead).

This module compiles a chain of *supported* layers into a flat list and then
executes **the exact same numpy operations, in the same order, with the same
associativity** that the autograd graph would execute.  Because IEEE-754
arithmetic is deterministic, the results — forward activations, loss values,
parameter gradients and input gradients — are bit-identical to the autograd
path by construction; ``tests/nn/test_gradcheck.py`` pins this exhaustively.

Supported layers: :class:`Linear`, :class:`ReLU`, :class:`LeakyReLU`,
:class:`Tanh`, :class:`Sigmoid`, :class:`Dropout`, :class:`GaussianNoise`
and :class:`Flatten` (plus arbitrarily nested :class:`Sequential`).  Anything
else — attention, convolutions, custom modules — makes :func:`compile_chain`
return ``None`` and callers fall back to the autograd path unchanged.

Stateful details that matter for bit-identity:

* Dropout/GaussianNoise draw from each layer's own ``rng`` in layer order,
  exactly as the autograd forward would, so training trajectories match.
* Parameter gradients follow ``Tensor._accumulate`` semantics (first
  contribution is copied, later ones added), so ``Adam``/``SGD`` see
  identical ``param.grad`` arrays.
* One intentional divergence: :func:`input_gradient_ce` does **not** write
  parameter gradients (the autograd path leaves them populated).  Every
  in-repo consumer calls ``zero_grad`` before reading ``param.grad``, and
  skipping the writes halves the matmul count of the attack hot loop.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from .layers import (
    Dropout,
    Flatten,
    GaussianNoise,
    LeakyReLU,
    Linear,
    Module,
    ReLU,
    Sequential,
    Sigmoid,
    Tanh,
)
from .losses import one_hot
from .tensor import _unbroadcast, is_grad_enabled

__all__ = [
    "compile_chain",
    "forward",
    "forward_tape",
    "backward_tape",
    "ce_loss_and_grad",
    "ce_input_seed",
    "ce_target_matrix",
    "mse_loss_and_grad",
    "input_gradient_ce",
    "train_step_ce",
    "train_step_mse",
]

#: Layers the fused kernels replicate.  Matched by *exact* type: a subclass
#: could override ``forward`` and silently break the bit-identity contract.
_SUPPORTED = (Linear, ReLU, LeakyReLU, Tanh, Sigmoid, Dropout, GaussianNoise, Flatten)


def compile_chain(module: Module) -> Optional[List[Module]]:
    """Flatten ``module`` into a list of supported layers, or ``None``.

    ``None`` means "not expressible by the fused kernels — use autograd".
    The returned list holds live references to the layer modules, so weight
    updates, ``train()``/``eval()`` switches and rng state are always seen.
    """
    if type(module) is Sequential:
        chain: List[Module] = []
        for sub in module:
            sub_chain = compile_chain(sub)
            if sub_chain is None:
                return None
            chain.extend(sub_chain)
        return chain
    if type(module) in _SUPPORTED:
        return [module]
    return None


# ----------------------------------------------------------------------
# Forward
# ----------------------------------------------------------------------
def forward_tape(chain: List[Module], x: np.ndarray) -> Tuple[np.ndarray, List]:
    """Run the chain forward, recording the per-layer caches backward needs.

    Training-mode layers (dropout, noise) consult each layer's own
    ``training`` flag and ``rng``, mirroring ``Module.forward`` exactly.
    """
    out = np.asarray(x, dtype=np.float64)
    tape: List = []
    for layer in chain:
        kind = type(layer)
        if kind is Linear:
            pre = out
            out = out @ layer.weight.data
            if layer.bias is not None:
                out = out + layer.bias.data
            tape.append(pre)
        elif kind is ReLU:
            mask = (out > 0).astype(np.float64)
            out = out * mask
            tape.append(mask)
        elif kind is LeakyReLU:
            mask = np.where(out > 0, 1.0, layer.negative_slope)
            out = out * mask
            tape.append(mask)
        elif kind is Tanh:
            out = np.tanh(out)
            tape.append(out)
        elif kind is Sigmoid:
            out = 1.0 / (1.0 + np.exp(-out))
            tape.append(out)
        elif kind is Dropout:
            if layer.training and layer.rate > 0.0:
                keep = 1.0 - layer.rate
                mask = (layer.rng.random(out.shape) < keep).astype(np.float64) / keep
                out = out * mask
                tape.append(mask)
            else:
                tape.append(None)
        elif kind is GaussianNoise:
            if layer.training and layer.std != 0.0:
                out = out + layer.rng.normal(0.0, layer.std, size=out.shape)
            tape.append(None)
        else:  # Flatten
            tape.append(out.shape)
            out = out.reshape(out.shape[0], -1)
    return out, tape


def forward(chain: List[Module], x: np.ndarray) -> np.ndarray:
    """Forward pass without gradient bookkeeping (prediction hot path)."""
    out = np.asarray(x, dtype=np.float64)
    for layer in chain:
        kind = type(layer)
        if kind is Linear:
            out = out @ layer.weight.data
            if layer.bias is not None:
                out = out + layer.bias.data
        elif kind is ReLU:
            out = out * (out > 0).astype(np.float64)
        elif kind is LeakyReLU:
            out = out * np.where(out > 0, 1.0, layer.negative_slope)
        elif kind is Tanh:
            out = np.tanh(out)
        elif kind is Sigmoid:
            out = 1.0 / (1.0 + np.exp(-out))
        elif kind is Dropout:
            if layer.training and layer.rate > 0.0:
                keep = 1.0 - layer.rate
                out = out * ((layer.rng.random(out.shape) < keep).astype(np.float64) / keep)
        elif kind is GaussianNoise:
            if layer.training and layer.std != 0.0:
                out = out + layer.rng.normal(0.0, layer.std, size=out.shape)
        else:  # Flatten
            out = out.reshape(out.shape[0], -1)
    return out


# ----------------------------------------------------------------------
# Backward
# ----------------------------------------------------------------------
def _accumulate_param(param, gradient: np.ndarray) -> None:
    """Replicate ``Tensor._accumulate``: unbroadcast, copy-or-add."""
    gradient = _unbroadcast(np.asarray(gradient, dtype=np.float64), param.data.shape)
    if param.grad is None:
        param.grad = gradient.copy()
    else:
        param.grad = param.grad + gradient


def backward_tape(
    chain: List[Module],
    tape: List,
    grad: np.ndarray,
    accumulate_params: bool = True,
    need_input_grad: bool = True,
) -> Optional[np.ndarray]:
    """Propagate ``grad`` back through a taped forward pass.

    Returns the gradient with respect to the chain input (or ``None`` when
    ``need_input_grad`` is false, which lets training skip the first layer's
    input matmul).
    """
    grad = np.asarray(grad, dtype=np.float64)
    for position in range(len(chain) - 1, -1, -1):
        layer = chain[position]
        cache = tape[position]
        kind = type(layer)
        if kind is Linear:
            if accumulate_params:
                if layer.bias is not None:
                    bias_grad = grad
                    extra = grad.ndim - 1
                    if extra > 0:
                        bias_grad = grad.sum(axis=tuple(range(extra)))
                    _accumulate_param(layer.bias, bias_grad)
                _accumulate_param(layer.weight, np.swapaxes(cache, -1, -2) @ grad)
            if position == 0 and not need_input_grad:
                return None
            grad = grad @ np.swapaxes(layer.weight.data, -1, -2)
        elif kind is ReLU or kind is LeakyReLU:
            grad = grad * cache
        elif kind is Tanh:
            grad = grad * (1.0 - cache ** 2)
        elif kind is Sigmoid:
            grad = grad * cache * (1.0 - cache)
        elif kind is Dropout:
            if cache is not None:
                grad = grad * cache
        elif kind is GaussianNoise:
            pass
        else:  # Flatten
            grad = grad.reshape(cache)
    return grad


# ----------------------------------------------------------------------
# Loss kernels (bit-identical to losses.py + Tensor.backward)
# ----------------------------------------------------------------------
def ce_target_matrix(
    targets, num_classes: int, label_smoothing: float, batch_size: Optional[int] = None
) -> np.ndarray:
    """(Smoothed) one-hot target matrix exactly as :class:`CrossEntropyLoss` builds it.

    Training loops can call this once over the full label array and slice row
    batches out of the result — gathering rows is exact.
    """
    targets_array = np.asarray(targets)
    if targets_array.ndim == 1:
        target_matrix = one_hot(targets_array, num_classes)
    elif targets_array.shape == ((batch_size, num_classes) if batch_size is not None else targets_array.shape):
        target_matrix = targets_array.astype(np.float64)
    else:
        raise ValueError(
            f"targets shape {targets_array.shape} incompatible with "
            f"({batch_size}, {num_classes}) logits"
        )
    if label_smoothing > 0.0:
        target_matrix = target_matrix * (1.0 - label_smoothing) + label_smoothing / num_classes
    return target_matrix


def ce_loss_and_grad(
    logits: np.ndarray,
    targets,
    label_smoothing: float = 0.0,
    target_matrix: Optional[np.ndarray] = None,
) -> Tuple[float, np.ndarray]:
    """Cross-entropy loss value and its gradient with respect to ``logits``.

    Replicates the op sequence of :class:`CrossEntropyLoss` (one-hot /
    smoothing, ``log_softmax``, ``-(lp * T).sum(-1).mean()``) and the seed
    gradient ``Tensor.backward`` would propagate, bit for bit.  The seed
    gradient chain (ones seed → mean scaling → negation) collapses to the
    exact scalar ``-(1/count)``, applied in one multiply; negation and
    broadcasting are exact, so the collapsed form produces the same bits.

    ``target_matrix`` lets callers that step over mini-batches of a fixed
    label array precompute the (smoothed) one-hot matrix once and pass row
    slices — row gathering is exact, so the result is unchanged.
    """
    if logits.ndim != 2:
        raise ValueError(f"logits must be 2-D (batch, classes), got shape {logits.shape}")
    if target_matrix is None:
        target_matrix = ce_target_matrix(
            targets, logits.shape[1], label_smoothing, batch_size=logits.shape[0]
        )

    shifted = logits - logits.max(axis=-1, keepdims=True)
    log_sum = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    log_probs = shifted - log_sum
    softmax = np.exp(log_probs)

    count = logits.shape[0]
    loss = (-(log_probs * target_matrix).sum(axis=-1)).sum(axis=None) * (1.0 / count)

    grad_log_probs = (-(1.0 / count)) * target_matrix
    grad_logits = grad_log_probs - softmax * grad_log_probs.sum(axis=-1, keepdims=True)
    return float(loss), grad_logits


def ce_input_seed(
    logits: np.ndarray,
    targets,
    label_smoothing: float = 0.0,
) -> np.ndarray:
    """CE gradient w.r.t. ``logits`` without materialising the loss value.

    The loss reduction (`(lp * T).sum` / mean) feeds only the scalar loss,
    not the gradient, so attack crafting — which discards the loss — skips
    those passes entirely.  The gradient ops are the same as
    :func:`ce_loss_and_grad`.
    """
    if logits.ndim != 2:
        raise ValueError(f"logits must be 2-D (batch, classes), got shape {logits.shape}")
    target_matrix = ce_target_matrix(
        targets, logits.shape[1], label_smoothing, batch_size=logits.shape[0]
    )

    shifted = logits - logits.max(axis=-1, keepdims=True)
    log_sum = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    softmax = np.exp(shifted - log_sum)

    grad_log_probs = (-(1.0 / logits.shape[0])) * target_matrix
    return grad_log_probs - softmax * grad_log_probs.sum(axis=-1, keepdims=True)


def mse_loss_and_grad(predictions: np.ndarray, targets: np.ndarray) -> Tuple[float, np.ndarray]:
    """MSE loss value and gradient w.r.t. ``predictions`` (bit-identical)."""
    targets = np.asarray(targets, dtype=np.float64)
    if predictions.shape != targets.shape:
        raise ValueError(
            f"prediction shape {predictions.shape} does not match target shape {targets.shape}"
        )
    diff = predictions - targets
    squared = diff * diff
    count = squared.size
    loss = squared.sum(axis=None) * (1.0 / count)

    # The seed-gradient chain collapses to the exact scalar 1/count; diff
    # appears twice in `diff * diff`, and _accumulate adds each contribution.
    half = (1.0 / count) * diff
    grad_predictions = half + half
    return float(loss), grad_predictions


# ----------------------------------------------------------------------
# Fused entry points
# ----------------------------------------------------------------------
def _require_grad_mode() -> None:
    if not is_grad_enabled():
        raise RuntimeError("called backward() on a tensor that does not require grad")


def input_gradient_ce(
    chain: List[Module], x: np.ndarray, labels, label_smoothing: float = 0.0
) -> np.ndarray:
    """Gradient of the CE loss with respect to the inputs (attack hot path)."""
    _require_grad_mode()
    logits, tape = forward_tape(chain, x)
    grad_logits = ce_input_seed(logits, labels, label_smoothing)
    grad = backward_tape(chain, tape, grad_logits, accumulate_params=False)
    return grad.copy()


def train_step_ce(
    chain: List[Module],
    x: np.ndarray,
    labels,
    label_smoothing: float = 0.0,
    target_matrix: Optional[np.ndarray] = None,
) -> float:
    """One training step: forward, CE loss, parameter gradients. Returns loss."""
    _require_grad_mode()
    logits, tape = forward_tape(chain, x)
    loss, grad_logits = ce_loss_and_grad(logits, labels, label_smoothing, target_matrix)
    backward_tape(chain, tape, grad_logits, accumulate_params=True, need_input_grad=False)
    return loss


def train_step_mse(chain: List[Module], x: np.ndarray, targets: np.ndarray) -> float:
    """One training step against an MSE reconstruction target. Returns loss."""
    _require_grad_mode()
    predictions, tape = forward_tape(chain, x)
    loss, grad_predictions = mse_loss_and_grad(predictions, targets)
    backward_tape(chain, tape, grad_predictions, accumulate_params=True, need_input_grad=False)
    return loss
