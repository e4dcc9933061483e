"""Graph-free numpy kernels for :class:`~repro.core.model.CALLOCModel`.

The autograd :meth:`CALLOCModel.forward` records one ``Tensor`` per op and,
on ``backward``, also computes every gradient of the constant operands (the
attention database, the detached targets) before discarding it — for the
kernel votes those are full ``(batch, refs, APs)`` arrays.  The three kernels
here replay the graph's op sequence directly on numpy arrays:

* :func:`train_step` — forward, CE + weighted reconstruction loss, and every
  ``param.grad`` (one trainer step);
* :func:`input_gradient` — eval-mode CE gradient w.r.t. the inputs (the
  white-box attack hot path);
* :func:`logits` — inference.

Bit-identity with autograd holds by construction, as in
:mod:`repro.nn.fastpath`: the same numpy ops on the same operands in the same
layouts (gradients are C-contiguous wherever ``Tensor._accumulate``'s copy
makes them so before the next matmul), the same ``_unbroadcast`` reductions,
parameter gradients accumulated contribution by contribution, and dropout
then noise drawn from each layer's rng in the autograd forward's order.
``tests/core/test_fused_kernels.py`` pins it bit for bit.

:func:`input_gradient` and :func:`logits` evaluate the kernel votes in row
blocks of :data:`BLOCK_ELEMENTS` // (refs × APs) rows, so the
``(rows, refs, APs)`` temporaries stay cache-sized.  Every op in that block is
elementwise or reduces within one row, so blocking cannot change a bit;
matmuls and cross-row reductions always run over the whole batch.  The
training step reduces the vote gradients across rows and is never blocked.

:func:`fusable` decides by exact type: a subclass (or a swapped-in layer)
may override ``forward`` and keeps the autograd path, as does a batch that
is not C-contiguous (numpy lays autograd's vote arrays out after the input,
which changes how their per-row sums round).  The attention module's
``last_attention_weights`` is only refreshed by the autograd forward, which
backs :meth:`CALLOCModel.attention_weights`.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..nn import Dropout, GaussianNoise, Linear, ScaledDotProductAttention
from ..nn.fastpath import _accumulate_param as _accumulate
from ..nn.fastpath import _require_grad_mode, ce_input_seed, ce_loss_and_grad
from ..nn.losses import MSELoss
from ..nn.tensor import _unbroadcast
from .embedding import CurriculumEmbedding, OriginalEmbedding
from .model import CALLOCModel

__all__ = ["BLOCK_ELEMENTS", "fusable", "train_step", "input_gradient", "logits"]

#: Elements of one ``(rows, refs, APs)`` kernel-vote block; a block holds
#: ``max(1, BLOCK_ELEMENTS // (refs * APs))`` rows.
BLOCK_ELEMENTS = 1 << 16


def fusable(model, features: Optional[np.ndarray] = None) -> bool:
    """Whether the kernels replicate ``model``'s autograd graph exactly.

    With ``features``, also whether they are a C-contiguous batch: for other
    layouts numpy lays the autograd vote arrays out differently, and the
    per-row sums over them round differently.
    """
    if features is not None and (features.ndim != 2 or not features.flags.c_contiguous):
        return False
    if type(model) is not CALLOCModel:
        return False
    curriculum, original = model.curriculum_embedding, model.original_embedding
    linears = (
        curriculum.projection, curriculum._decoder, original.projection,
        original._decoder, model.query_proj, model.key_proj, model.classifier,
    )
    return (
        type(curriculum) is CurriculumEmbedding
        and type(original) is OriginalEmbedding
        and type(original.dropout) is Dropout
        and type(original.noise) is GaussianNoise
        and type(model.attention) is ScaledDotProductAttention
        and type(curriculum._mse) is MSELoss
        and type(original._mse) is MSELoss
        and all(type(layer) is Linear and layer.bias is not None for layer in linears)
    )


# ----------------------------------------------------------------------
# Shared forward pieces
# ----------------------------------------------------------------------
def _linear(layer: Linear, inputs: np.ndarray) -> np.ndarray:
    return inputs @ layer.weight.data + layer.bias.data


def _augmented_references(embedding: OriginalEmbedding, references: np.ndarray) -> np.ndarray:
    """The database after ``OriginalEmbedding``'s dropout, then noise."""
    augmented = references
    dropout, noise = embedding.dropout, embedding.noise
    if dropout.training and dropout.rate != 0.0:
        keep = 1.0 - dropout.rate
        mask = (dropout.rng.random(augmented.shape) < keep).astype(np.float64) / keep
        augmented = augmented * mask
    if noise.training and noise.std != 0.0:
        augmented = augmented + noise.rng.normal(0.0, noise.std, size=augmented.shape)
    return augmented


def _kernel_terms(model: CALLOCModel) -> Tuple[np.ndarray, ...]:
    """Bandwidth, its clip mask and square, and the softplus reliabilities."""
    low, high = model.KERNEL_BANDWIDTH_RANGE
    log_low, log_high = np.log(low), np.log(high)
    log_bandwidth = model.log_bandwidth.data
    clip_mask = ((log_bandwidth >= log_low) & (log_bandwidth <= log_high)).astype(np.float64)
    bandwidth = np.exp(np.clip(log_bandwidth, log_low, log_high))
    exp_reliability = np.exp(model.ap_reliability.data)
    shifted = exp_reliability + 1.0
    return (
        bandwidth, clip_mask, bandwidth * bandwidth,
        exp_reliability, shifted, np.log(shifted),
    )


def _vote_blocks(x: np.ndarray, references: np.ndarray, bandwidth_sq: np.ndarray):
    """Yield ``(rows, delta, kernel, work)`` for each row block of ``x``.

    ``delta`` and ``kernel`` are :meth:`CALLOCModel.kernel_votes`' input
    differences and Gaussian kernel for the block's rows; all three arrays
    are views of buffers reused by the next block.
    """
    num_refs, num_aps = references.shape
    step = max(1, BLOCK_ELEMENTS // references.size)
    buffers = np.empty((3, min(step, x.shape[0]), num_refs, num_aps))
    for start in range(0, x.shape[0], step):
        block = x[start : start + step]
        delta, kernel, work = buffers[:, : block.shape[0]]
        np.subtract(
            block.reshape(block.shape[0], 1, num_aps),
            references.reshape(1, num_refs, num_aps),
            out=delta,
        )
        np.multiply(delta, delta, out=kernel)
        np.multiply(kernel, -0.5, out=kernel)
        np.divide(kernel, bandwidth_sq, out=kernel)
        np.exp(kernel, out=kernel)
        yield slice(start, start + block.shape[0]), delta, kernel, work


def _softmax(scores: np.ndarray) -> np.ndarray:
    exps = np.exp(scores - scores.max(axis=-1, keepdims=True))
    return exps / exps.sum(axis=-1, keepdims=True)


def _blocked_forward(model: CALLOCModel, x: np.ndarray):
    """Logits plus what the input gradient's backward reuses."""
    references = model._reference_features
    num_aps = references.shape[1]
    _, _, bandwidth_sq, _, _, reliability = _kernel_terms(model)
    reliability = reliability.reshape(1, 1, num_aps)
    summed = np.empty((x.shape[0], references.shape[0]))
    for rows, _, kernel, _ in _vote_blocks(x, references, bandwidth_sq):
        summed[rows] = np.multiply(kernel, reliability, out=kernel).sum(axis=2)
    votes_scale = 1.0 / float(np.sqrt(num_aps))
    bias = (summed * votes_scale) * model.kernel_mix.data

    h_curriculum = _linear(model.curriculum_embedding.projection, x)
    h_original = _linear(
        model.original_embedding.projection,
        _augmented_references(model.original_embedding, references),
    )
    query = _linear(model.query_proj, h_curriculum) * model.dot_mix.data
    key = _linear(model.key_proj, h_original)
    scale = _attention_scale(model, query)
    weights = _softmax((query @ np.swapaxes(key, -1, -2)) * scale + bias)
    out = _linear(model.classifier, weights @ model._value_inputs)
    return out, (key, weights, scale, votes_scale, bandwidth_sq, reliability)


def _attention_scale(model: CALLOCModel, query: np.ndarray) -> float:
    scale = model.attention.scale
    return scale if scale is not None else 1.0 / float(np.sqrt(query.shape[-1]))


# ----------------------------------------------------------------------
# Kernels
# ----------------------------------------------------------------------
def logits(model: CALLOCModel, features: np.ndarray) -> np.ndarray:
    """Classification logits, as ``model(Tensor(features)).data``."""
    return _blocked_forward(model, np.asarray(features, dtype=np.float64))[0]


def input_gradient(
    model: CALLOCModel, features: np.ndarray, labels, label_smoothing: float = 0.0
) -> np.ndarray:
    """Gradient of the mean CE loss w.r.t. ``features`` (parameter grads untouched)."""
    _require_grad_mode()
    x = np.asarray(features, dtype=np.float64)
    out, saved = _blocked_forward(model, x)
    key, weights, scale, votes_scale, bandwidth_sq, reliability = saved

    grad_context = ce_input_seed(out, labels, label_smoothing) @ np.swapaxes(
        model.classifier.weight.data, -1, -2
    )
    grad_weights = grad_context @ np.swapaxes(model._value_inputs, -1, -2)
    dot = (grad_weights * weights).sum(axis=-1, keepdims=True)
    grad_scores = weights * (grad_weights - dot)
    grad_query = (grad_scores * scale) @ key
    grad_curriculum = (grad_query * model.dot_mix.data) @ np.swapaxes(
        model.query_proj.weight.data, -1, -2
    )
    grad = grad_curriculum @ np.swapaxes(
        model.curriculum_embedding.projection.weight.data, -1, -2
    )
    grad_summed = (grad_scores * model.kernel_mix.data) * votes_scale
    references = model._reference_features
    for rows, delta, kernel, work in _vote_blocks(x, references, bandwidth_sq):
        # Back through the reliability weighting, the exp, the bandwidth
        # division, the -0.5 scaling and both operands of ``delta * delta``.
        np.multiply(grad_summed[rows, :, None], reliability, out=work)
        np.multiply(work, kernel, out=work)
        np.divide(work, bandwidth_sq, out=work)
        np.multiply(work, -0.5, out=work)
        np.multiply(work, delta, out=work)
        np.add(work, work, out=work)
        grad[rows] += _unbroadcast(work, delta[:, :1].shape).reshape(delta.shape[0], -1)
    return grad


def train_step(
    model: CALLOCModel,
    features: np.ndarray,
    target_matrix: np.ndarray,
    reconstruction_weight: float,
) -> float:
    """One training step: accumulate every ``param.grad``, return the loss.

    Replays ``CrossEntropyLoss(model(x), targets)`` plus, when
    ``reconstruction_weight > 0``,
    ``model.embedding_reconstruction_loss(x) * reconstruction_weight`` and
    ``backward()``.  ``features`` is a C-contiguous batch (row gathers such
    as ``features[batch]`` always are); ``target_matrix`` is the (smoothed)
    one-hot target of each row, as :func:`repro.nn.fastpath.ce_target_matrix`
    builds it.
    """
    _require_grad_mode()
    x = features
    curriculum, original = model.curriculum_embedding, model.original_embedding
    references = model._reference_features
    num_aps = references.shape[1]

    # Forward, in the autograd forward's order (the database draws first).
    h_curriculum = _linear(curriculum.projection, x)
    augmented = _augmented_references(original, references)
    h_original = _linear(original.projection, augmented)
    query_pre = _linear(model.query_proj, h_curriculum)
    query = query_pre * model.dot_mix.data
    key = _linear(model.key_proj, h_original)
    bandwidth, clip_mask, bandwidth_sq, exp_reliability, shifted, reliability = (
        _kernel_terms(model)
    )
    reliability_row = reliability.reshape(1, 1, num_aps)
    # The (rows, refs, APs) vote arrays dominate a step, so they live in
    # three buffers updated in place (``out=`` computes the same bits).
    scaled_sq, kernel, work = np.empty((3, x.shape[0]) + references.shape)
    np.subtract(x.reshape(x.shape[0], 1, num_aps), references, out=scaled_sq)
    np.multiply(scaled_sq, scaled_sq, out=scaled_sq)
    np.multiply(scaled_sq, -0.5, out=scaled_sq)
    np.divide(scaled_sq, bandwidth_sq, out=kernel)
    np.exp(kernel, out=kernel)
    np.multiply(kernel, reliability_row, out=work)
    votes_scale = 1.0 / float(np.sqrt(num_aps))
    votes = work.sum(axis=2) * votes_scale
    scale = _attention_scale(model, query)
    weights = _softmax((query @ np.swapaxes(key, -1, -2)) * scale + votes * model.kernel_mix.data)
    context = weights @ model._value_inputs
    out = _linear(model.classifier, context)
    loss, grad_out = ce_loss_and_grad(out, None, target_matrix=target_matrix)

    # Backward.  Parameters fed twice (the embedding projections, by the
    # model and by the reconstruction) take the model's contribution first.
    _accumulate(model.classifier.bias, grad_out)
    _accumulate(model.classifier.weight, np.swapaxes(context, -1, -2) @ grad_out)
    grad_context = grad_out @ np.swapaxes(model.classifier.weight.data, -1, -2)
    grad_weights = grad_context @ np.swapaxes(model._value_inputs, -1, -2)
    dot = (grad_weights * weights).sum(axis=-1, keepdims=True)
    grad_scores = weights * (grad_weights - dot)

    # Kernel votes: only the parameter gradients (the inputs are constants).
    grad_votes = grad_scores * model.kernel_mix.data
    _accumulate(model.kernel_mix, grad_scores * votes)
    grad_weighted = (grad_votes * votes_scale)[:, :, None]
    np.multiply(grad_weighted, kernel, out=work)
    grad_softplus = _unbroadcast(work, reliability_row.shape).reshape(num_aps)
    _accumulate(model.ap_reliability, (grad_softplus / shifted) * exp_reliability)
    np.multiply(grad_weighted, reliability_row, out=work)
    np.multiply(work, kernel, out=work)
    np.negative(work, out=work)
    np.multiply(work, scaled_sq, out=work)
    np.divide(work, bandwidth_sq ** 2, out=work)
    grad_bandwidth_sq = _unbroadcast(work, bandwidth_sq.shape)
    grad_bandwidth = grad_bandwidth_sq * bandwidth
    grad_bandwidth = grad_bandwidth + grad_bandwidth
    _accumulate(model.log_bandwidth, (grad_bandwidth * bandwidth) * clip_mask)

    # Attention projections.
    grad_query_scores = grad_scores * scale
    grad_query = grad_query_scores @ key
    grad_key = np.swapaxes(
        np.swapaxes(query, -1, -2) @ grad_query_scores, -1, -2
    ).copy()
    grad_query_pre = grad_query * model.dot_mix.data
    _accumulate(model.dot_mix, grad_query * query_pre)
    _accumulate(model.query_proj.bias, grad_query_pre)
    _accumulate(model.query_proj.weight, np.swapaxes(h_curriculum, -1, -2) @ grad_query_pre)
    grad_curriculum = grad_query_pre @ np.swapaxes(model.query_proj.weight.data, -1, -2)
    _accumulate(model.key_proj.bias, grad_key)
    _accumulate(model.key_proj.weight, np.swapaxes(h_original, -1, -2) @ grad_key)
    grad_original = grad_key @ np.swapaxes(model.key_proj.weight.data, -1, -2)
    _accumulate(curriculum.projection.bias, grad_curriculum)
    _accumulate(curriculum.projection.weight, np.swapaxes(x, -1, -2) @ grad_curriculum)
    _accumulate(original.projection.bias, grad_original)
    _accumulate(original.projection.weight, np.swapaxes(augmented, -1, -2) @ grad_original)

    if reconstruction_weight > 0:
        # The curriculum hyperspace is recomputed by the same ops, so
        # ``h_curriculum`` stands in for it; the database is re-augmented
        # (a second dropout + noise draw), exactly as autograd does.
        curriculum_mse = _reconstruction_step(
            curriculum, x, h_curriculum, x, reconstruction_weight
        )
        augmented = _augmented_references(original, references)
        original_mse = _reconstruction_step(
            original, augmented, _linear(original.projection, augmented),
            references, reconstruction_weight,
        )
        loss = loss + (curriculum_mse + original_mse) * reconstruction_weight
    return float(loss)


def _reconstruction_step(
    embedding: CurriculumEmbedding,
    inputs: np.ndarray,
    hyperspace: np.ndarray,
    target: np.ndarray,
    weight: float,
) -> float:
    """MSE of one embedding's reconstruction; accumulates its gradients."""
    decoder, projection = embedding._decoder, embedding.projection
    diff = _linear(decoder, hyperspace) - target
    squared = diff * diff
    count = squared.size
    half = (weight * (1.0 / count)) * diff
    grad_reconstruction = half + half
    _accumulate(decoder.bias, grad_reconstruction)
    _accumulate(decoder.weight, np.swapaxes(hyperspace, -1, -2) @ grad_reconstruction)
    grad_hyperspace = grad_reconstruction @ np.swapaxes(decoder.weight.data, -1, -2)
    _accumulate(projection.bias, grad_hyperspace)
    _accumulate(projection.weight, np.swapaxes(inputs, -1, -2) @ grad_hyperspace)
    return squared.sum(axis=None) * (1.0 / count)
