"""Property-based gradient checks: finite differences vs autograd.

Every ``Tensor`` operation and every layer used by CALLOC and the baselines
is checked against a central finite-difference approximation of its gradient
over *random shapes* (including broadcasting shape pairs).  The scalar
objective is a random linear projection of the op's output, so asymmetric
gradient bugs (e.g. summing over the wrong broadcast axis) cannot cancel out
the way they could under a plain ``.sum()``.

These tests complement ``test_property_autograd.py``: that file checks
algebraic identities of forward values, this one checks every backward rule
numerically — which is what catches broadcasting-gradient bugs.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.nn import (
    Conv1d,
    CrossEntropyLoss,
    LayerNorm,
    Linear,
    MaxPool1d,
    MSELoss,
    Sequential,
    Tanh,
    Tensor,
)
from repro.nn.attention import ScaledDotProductAttention
from repro.nn.layers import Embedding, Module

EPS = 1e-6

moderate_floats = st.floats(
    min_value=-4.0, max_value=4.0, allow_nan=False, allow_infinity=False
)


def small_arrays(min_dims=1, max_dims=3, max_side=4, elements=moderate_floats):
    return arrays(
        dtype=np.float64,
        shape=array_shapes(
            min_dims=min_dims, max_dims=max_dims, min_side=1, max_side=max_side
        ),
        elements=elements,
    )


@st.composite
def broadcast_pairs(draw, max_dims=3, max_side=3):
    """Two arrays whose shapes broadcast together but generally differ.

    The second operand randomly drops leading axes and collapses surviving
    axes to size one — exactly the shape relationships whose backward pass
    must un-broadcast gradients correctly.
    """
    shape = draw(
        array_shapes(min_dims=1, max_dims=max_dims, min_side=1, max_side=max_side)
    )
    drop = draw(st.integers(min_value=0, max_value=len(shape)))
    other_shape = tuple(
        1 if draw(st.booleans()) else side for side in shape[drop:]
    )
    first = draw(arrays(dtype=np.float64, shape=shape, elements=moderate_floats))
    second = draw(
        arrays(dtype=np.float64, shape=other_shape, elements=moderate_floats)
    )
    return first, second


# ----------------------------------------------------------------------
# The checker
# ----------------------------------------------------------------------
def _projection(shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape)


def gradcheck(fn, *arrays, atol=1e-4, rtol=1e-3):
    """Compare autograd gradients of ``fn(*arrays)`` to central differences.

    ``fn`` maps :class:`Tensor` inputs to one output tensor; the objective is
    ``(fn(...) * W).sum()`` for a fixed random projection ``W``.
    """
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    output = fn(*tensors)
    weights = _projection(output.shape)
    (output * Tensor(weights)).sum().backward()

    def objective(values):
        result = fn(*[Tensor(v) for v in values])
        return float((result.data * weights).sum())

    for index, array in enumerate(arrays):
        analytic = tensors[index].grad
        assert analytic is not None, f"input {index} received no gradient"
        perturbed = [a.copy() for a in arrays]
        flat = perturbed[index].reshape(-1)
        numeric = np.zeros_like(flat)
        for position in range(flat.size):
            original = flat[position]
            flat[position] = original + EPS
            upper = objective(perturbed)
            flat[position] = original - EPS
            lower = objective(perturbed)
            flat[position] = original
            numeric[position] = (upper - lower) / (2.0 * EPS)
        np.testing.assert_allclose(
            analytic.reshape(-1),
            numeric,
            atol=atol,
            rtol=rtol,
            err_msg=f"gradient mismatch for input {index} of {fn}",
        )


def module_gradcheck(module: Module, *arrays, atol=1e-4, rtol=1e-3):
    """Gradient-check a module w.r.t. its inputs *and* every parameter."""
    module.eval()  # freeze dropout / noise layers so the map is deterministic
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    output = module(*tensors)
    weights = _projection(output.shape)
    module.zero_grad()
    (output * Tensor(weights)).sum().backward()

    def objective():
        return float((module(*[Tensor(a) for a in arrays]).data * weights).sum())

    # Inputs.
    for index, array in enumerate(arrays):
        analytic = tensors[index].grad
        assert analytic is not None
        flat = array.reshape(-1)
        numeric = np.zeros_like(flat)
        saved = arrays[index]
        for position in range(flat.size):
            original = flat[position]
            flat[position] = original + EPS
            upper = objective()
            flat[position] = original - EPS
            lower = objective()
            flat[position] = original
            numeric[position] = (upper - lower) / (2.0 * EPS)
        np.testing.assert_allclose(
            analytic.reshape(-1), numeric, atol=atol, rtol=rtol,
            err_msg=f"input {index} gradient mismatch for {type(module).__name__}",
        )
        arrays[index] = saved
    # Parameters (perturbed in place).
    for name, param in module.named_parameters():
        analytic = param.grad
        assert analytic is not None, f"parameter {name} received no gradient"
        flat = param.data.reshape(-1)
        numeric = np.zeros_like(flat)
        for position in range(flat.size):
            original = flat[position]
            flat[position] = original + EPS
            upper = objective()
            flat[position] = original - EPS
            lower = objective()
            flat[position] = original
            numeric[position] = (upper - lower) / (2.0 * EPS)
        np.testing.assert_allclose(
            analytic.reshape(-1), numeric, atol=atol, rtol=rtol,
            err_msg=f"parameter {name} gradient mismatch for {type(module).__name__}",
        )


def _away_from(values: np.ndarray, points, margin=1e-3) -> bool:
    """True when every value keeps ``margin`` distance from every kink point."""
    values = np.asarray(values)
    return all(np.abs(values - p).min() > margin for p in points) if values.size else True


# ----------------------------------------------------------------------
# Arithmetic with broadcasting
# ----------------------------------------------------------------------
class TestBroadcastArithmetic:
    @settings(max_examples=25, deadline=None)
    @given(broadcast_pairs())
    def test_add(self, pair):
        a, b = pair
        gradcheck(lambda x, y: x + y, a, b)

    @settings(max_examples=25, deadline=None)
    @given(broadcast_pairs())
    def test_sub(self, pair):
        a, b = pair
        gradcheck(lambda x, y: x - y, a, b)

    @settings(max_examples=25, deadline=None)
    @given(broadcast_pairs())
    def test_mul(self, pair):
        a, b = pair
        gradcheck(lambda x, y: x * y, a, b)

    @settings(max_examples=25, deadline=None)
    @given(broadcast_pairs())
    def test_div(self, pair):
        a, b = pair
        assume(np.abs(b).min() > 0.3)
        gradcheck(lambda x, y: x / y, a, b, atol=1e-3, rtol=1e-2)

    @settings(max_examples=20, deadline=None)
    @given(small_arrays(), st.sampled_from([2.0, 3.0, 0.5, -1.0]))
    def test_pow(self, data, exponent):
        positive = np.abs(data) + 0.5  # keep the base away from 0
        gradcheck(lambda x: x ** exponent, positive, atol=1e-3, rtol=1e-2)

    @settings(max_examples=15, deadline=None)
    @given(small_arrays())
    def test_neg_and_scalar_ops(self, data):
        gradcheck(lambda x: 2.5 - (-x) / 2.0 + x * 0.75, data)


# ----------------------------------------------------------------------
# Linear algebra
# ----------------------------------------------------------------------
class TestMatmul:
    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
        st.randoms(use_true_random=False),
    )
    def test_2d(self, m, k, n, rnd):
        rng = np.random.default_rng(rnd.randint(0, 2**31))
        gradcheck(lambda x, y: x.matmul(y), rng.standard_normal((m, k)),
                  rng.standard_normal((k, n)))

    @settings(max_examples=15, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.integers(1, 2),
           st.randoms(use_true_random=False))
    def test_batched_times_2d(self, m, k, n, batch, rnd):
        rng = np.random.default_rng(rnd.randint(0, 2**31))
        gradcheck(lambda x, y: x.matmul(y), rng.standard_normal((batch, m, k)),
                  rng.standard_normal((k, n)))

    @settings(max_examples=15, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.integers(1, 2),
           st.randoms(use_true_random=False))
    def test_batched_times_batched(self, m, k, n, batch, rnd):
        rng = np.random.default_rng(rnd.randint(0, 2**31))
        gradcheck(lambda x, y: x.matmul(y), rng.standard_normal((batch, m, k)),
                  rng.standard_normal((batch, k, n)))

    @settings(max_examples=15, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4), st.randoms(use_true_random=False))
    def test_vector_cases(self, k, n, rnd):
        rng = np.random.default_rng(rnd.randint(0, 2**31))
        gradcheck(lambda x, y: x.matmul(y), rng.standard_normal(k),
                  rng.standard_normal((k, n)))
        gradcheck(lambda x, y: x.matmul(y), rng.standard_normal((n, k)),
                  rng.standard_normal(k))
        gradcheck(lambda x, y: x.matmul(y), rng.standard_normal(k),
                  rng.standard_normal(k))


# ----------------------------------------------------------------------
# Shape manipulation
# ----------------------------------------------------------------------
class TestShapes:
    @settings(max_examples=15, deadline=None)
    @given(small_arrays(min_dims=2, max_dims=3))
    def test_transpose(self, data):
        gradcheck(lambda x: x.transpose(), data)

    @settings(max_examples=15, deadline=None)
    @given(small_arrays(min_dims=2, max_dims=3))
    def test_swapaxes(self, data):
        gradcheck(lambda x: x.swapaxes(0, -1), data)

    @settings(max_examples=15, deadline=None)
    @given(small_arrays(min_dims=2, max_dims=3))
    def test_reshape_and_flatten(self, data):
        gradcheck(lambda x: x.reshape(-1), data)
        gradcheck(lambda x: x.flatten(), data)

    @settings(max_examples=15, deadline=None)
    @given(small_arrays(min_dims=2, max_dims=2, max_side=4), st.data())
    def test_getitem_with_duplicate_indices(self, data, draw):
        rows = draw.draw(
            st.lists(st.integers(0, data.shape[0] - 1), min_size=1, max_size=5)
        )
        index = np.asarray(rows, dtype=np.int64)  # duplicates must accumulate
        gradcheck(lambda x: x[index], data)

    @settings(max_examples=15, deadline=None)
    @given(small_arrays(min_dims=2, max_dims=2), st.data())
    def test_concatenate(self, a, draw):
        # b shares a's column count by construction: filtering independent
        # draws for it trips hypothesis' filter_too_much health check.
        rows = draw.draw(st.integers(min_value=1, max_value=4))
        b = draw.draw(
            arrays(dtype=np.float64, shape=(rows, a.shape[1]), elements=moderate_floats)
        )
        gradcheck(lambda x, y: Tensor.concatenate([x, y], axis=0), a, b)

    @settings(max_examples=15, deadline=None)
    @given(small_arrays(min_dims=2, max_dims=2))
    def test_stack(self, data):
        gradcheck(lambda x, y: Tensor.stack([x, y], axis=1), data, data + 1.0)


# ----------------------------------------------------------------------
# Reductions
# ----------------------------------------------------------------------
class TestReductions:
    @settings(max_examples=20, deadline=None)
    @given(small_arrays(min_dims=1, max_dims=3), st.data())
    def test_sum_and_mean(self, data, draw):
        axis = draw.draw(
            st.one_of(st.none(), st.integers(-data.ndim, data.ndim - 1))
        )
        keepdims = draw.draw(st.booleans())
        gradcheck(lambda x: x.sum(axis=axis, keepdims=keepdims), data)
        gradcheck(lambda x: x.mean(axis=axis, keepdims=keepdims), data)

    @settings(max_examples=20, deadline=None)
    @given(small_arrays(min_dims=1, max_dims=2, max_side=4), st.data())
    def test_max_min(self, data, draw):
        flat = np.sort(np.abs(data.reshape(-1)))
        assume(flat.size == np.unique(data).size)  # ties sit on a kink
        assume(np.diff(np.sort(data.reshape(-1))).min(initial=1.0) > 1e-3)
        axis = draw.draw(st.one_of(st.none(), st.integers(0, data.ndim - 1)))
        gradcheck(lambda x: x.max(axis=axis), data)
        gradcheck(lambda x: x.min(axis=axis), data)


# ----------------------------------------------------------------------
# Elementwise non-linearities
# ----------------------------------------------------------------------
SMOOTH_OPS = {
    "exp": (lambda x: x.exp(), lambda a: np.clip(a, -3, 3)),
    "log": (lambda x: x.log(), lambda a: np.abs(a) + 0.5),
    "sqrt": (lambda x: x.sqrt(), lambda a: np.abs(a) + 0.5),
    "tanh": (lambda x: x.tanh(), lambda a: a),
    "sigmoid": (lambda x: x.sigmoid(), lambda a: a),
    "softmax": (lambda x: x.softmax(axis=-1), lambda a: a),
    "log_softmax": (lambda x: x.log_softmax(axis=-1), lambda a: a),
}


class TestElementwise:
    @pytest.mark.parametrize("name", sorted(SMOOTH_OPS))
    @settings(max_examples=15, deadline=None)
    @given(data=small_arrays())
    def test_smooth_op(self, name, data):
        op, domain = SMOOTH_OPS[name]
        gradcheck(op, domain(data), atol=1e-3, rtol=1e-2)

    @settings(max_examples=20, deadline=None)
    @given(small_arrays())
    def test_relu(self, data):
        assume(_away_from(data, (0.0,)))
        gradcheck(lambda x: x.relu(), data)

    @settings(max_examples=20, deadline=None)
    @given(small_arrays(), st.floats(min_value=0.01, max_value=0.5))
    def test_leaky_relu(self, data, slope):
        assume(_away_from(data, (0.0,)))
        gradcheck(lambda x: x.leaky_relu(slope), data)

    @settings(max_examples=20, deadline=None)
    @given(small_arrays())
    def test_abs(self, data):
        assume(_away_from(data, (0.0,)))
        gradcheck(lambda x: x.abs(), data)

    @settings(max_examples=20, deadline=None)
    @given(small_arrays())
    def test_clip(self, data):
        assume(_away_from(data, (-1.0, 1.0)))
        gradcheck(lambda x: x.clip(-1.0, 1.0), data)


# ----------------------------------------------------------------------
# Layers and losses used by CALLOC and the baselines
# ----------------------------------------------------------------------
class TestLayers:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 3),
           st.randoms(use_true_random=False))
    def test_linear(self, in_features, out_features, batch, rnd):
        rng = np.random.default_rng(rnd.randint(0, 2**31))
        layer = Linear(in_features, out_features, rng=np.random.default_rng(3))
        module_gradcheck(layer, rng.standard_normal((batch, in_features)))

    @settings(max_examples=10, deadline=None)
    @given(st.integers(2, 5), st.integers(1, 3), st.randoms(use_true_random=False))
    def test_layer_norm(self, features, batch, rnd):
        rng = np.random.default_rng(rnd.randint(0, 2**31))
        data = rng.standard_normal((batch, features))
        assume(np.ptp(data, axis=-1).min() > 0.1)  # degenerate rows: var ~ 0
        module_gradcheck(LayerNorm(features), data, atol=1e-3, rtol=1e-2)

    @settings(max_examples=8, deadline=None)
    @given(st.integers(1, 2), st.integers(1, 2), st.integers(2, 3),
           st.integers(0, 1), st.randoms(use_true_random=False))
    def test_conv1d(self, in_channels, out_channels, kernel, padding, rnd):
        rng = np.random.default_rng(rnd.randint(0, 2**31))
        length = kernel + 2
        layer = Conv1d(
            in_channels, out_channels, kernel, padding=padding,
            rng=np.random.default_rng(5),
        )
        module_gradcheck(layer, rng.standard_normal((2, in_channels, length)))

    @settings(max_examples=8, deadline=None)
    @given(st.integers(2, 3), st.integers(1, 2), st.randoms(use_true_random=False))
    def test_maxpool1d(self, kernel, channels, rnd):
        rng = np.random.default_rng(rnd.randint(0, 2**31))
        length = kernel * 2 + 1
        # Distinct values with comfortable gaps keep the pooling argmax off ties.
        values = rng.permutation(np.linspace(-2.0, 2.0, 2 * channels * length))
        data = values.reshape(2, channels, length)
        module_gradcheck(MaxPool1d(kernel), data)

    @settings(max_examples=8, deadline=None)
    @given(st.integers(2, 4), st.integers(1, 3), st.data())
    def test_embedding_accumulates_duplicate_rows(self, vocab, dim, draw):
        indices = draw.draw(
            st.lists(st.integers(0, vocab - 1), min_size=1, max_size=5)
        )
        layer = Embedding(vocab, dim, rng=np.random.default_rng(7))
        layer.eval()
        out = layer(np.asarray(indices))
        weights = _projection(out.shape, seed=1)
        layer.zero_grad()
        (out * Tensor(weights)).sum().backward()
        analytic = layer.weight.grad
        expected = np.zeros_like(layer.weight.data)
        np.add.at(expected, np.asarray(indices), weights)
        np.testing.assert_allclose(analytic, expected, atol=1e-9)

    @settings(max_examples=6, deadline=None)
    @given(st.integers(1, 3), st.randoms(use_true_random=False))
    def test_mlp_end_to_end(self, batch, rnd):
        rng = np.random.default_rng(rnd.randint(0, 2**31))
        mlp = Sequential(
            Linear(3, 4, rng=np.random.default_rng(11)),
            Tanh(),
            Linear(4, 2, rng=np.random.default_rng(12)),
        )
        module_gradcheck(mlp, rng.standard_normal((batch, 3)))

    @settings(max_examples=6, deadline=None)
    @given(st.integers(1, 2), st.integers(1, 3), st.integers(2, 3),
           st.randoms(use_true_random=False))
    def test_scaled_dot_product_attention(self, n_q, n_k, d_k, rnd):
        rng = np.random.default_rng(rnd.randint(0, 2**31))
        attention = ScaledDotProductAttention()
        module_gradcheck(
            attention,
            rng.standard_normal((n_q, d_k)),
            rng.standard_normal((n_k, d_k)),
            rng.standard_normal((n_k, 2)),
            atol=1e-3, rtol=1e-2,
        )


class TestLosses:
    @settings(max_examples=12, deadline=None)
    @given(st.integers(1, 4), st.integers(2, 5), st.randoms(use_true_random=False))
    def test_cross_entropy_wrt_logits(self, batch, classes, rnd):
        rng = np.random.default_rng(rnd.randint(0, 2**31))
        logits = rng.standard_normal((batch, classes))
        labels = rng.integers(0, classes, size=batch)
        loss = CrossEntropyLoss()
        gradcheck(lambda x: loss(x, labels), logits, atol=1e-3, rtol=1e-2)

    @settings(max_examples=12, deadline=None)
    @given(st.floats(0.0, 0.3), st.randoms(use_true_random=False))
    def test_cross_entropy_with_label_smoothing(self, smoothing, rnd):
        rng = np.random.default_rng(rnd.randint(0, 2**31))
        logits = rng.standard_normal((3, 4))
        labels = rng.integers(0, 4, size=3)
        loss = CrossEntropyLoss(label_smoothing=smoothing)
        gradcheck(lambda x: loss(x, labels), logits, atol=1e-3, rtol=1e-2)

    @settings(max_examples=12, deadline=None)
    @given(small_arrays(min_dims=2, max_dims=2), st.randoms(use_true_random=False))
    def test_mse_wrt_predictions(self, targets, rnd):
        rng = np.random.default_rng(rnd.randint(0, 2**31))
        predictions = rng.standard_normal(targets.shape)
        loss = MSELoss()
        gradcheck(lambda x: loss(x, targets), predictions)


# ----------------------------------------------------------------------
# Vectorized kernels vs their per-position loop references (bitwise)
# ----------------------------------------------------------------------
def _conv1d_loop(layer, inputs):
    """Per-output-position Conv1d — the implementation the gather replaced."""
    batch, channels, length = inputs.shape
    if layer.padding > 0:
        left = Tensor(np.zeros((batch, channels, layer.padding)))
        right = Tensor(np.zeros((batch, channels, layer.padding)))
        inputs = Tensor.concatenate([left, inputs, right], axis=2)
        length = length + 2 * layer.padding
    out_length = (length - layer.kernel_size) // layer.stride + 1
    columns = []
    for position in range(out_length):
        start = position * layer.stride
        patch = inputs[:, :, start : start + layer.kernel_size]
        columns.append(patch.reshape(batch, channels * layer.kernel_size))
    stacked = Tensor.stack(columns, axis=1)
    return (stacked.matmul(layer.weight) + layer.bias).transpose(0, 2, 1)


def _maxpool1d_loop(layer, inputs):
    """Per-window MaxPool1d reference."""
    batch, channels, length = inputs.shape
    out_length = (length - layer.kernel_size) // layer.stride + 1
    columns = []
    for position in range(out_length):
        start = position * layer.stride
        window = inputs[:, :, start : start + layer.kernel_size]
        columns.append(window.max(axis=2))
    return Tensor.stack(columns, axis=2)


def _bitwise_equal(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and bool(np.all(a.view(np.uint64) == b.view(np.uint64)))


class TestVectorizedKernelIdentity:
    """The gather-based Conv1d/MaxPool1d must match the loops *bitwise*.

    Tolerance-based gradchecks cannot catch a reordering of the gradient
    accumulation; these tests pin the stronger engine invariant that the
    vectorization changed nothing at all.  Overlapping windows (stride <
    kernel) are the hard case for the conv backward — the scatter-add must
    accumulate window gradients in the same ascending order the loop did —
    and integer-valued inputs force max-pool ties through the backward.
    """

    @pytest.mark.parametrize(
        "kernel,stride,padding",
        [(5, 2, 2), (3, 1, 1), (4, 4, 0), (2, 1, 0)],
        ids=["strided", "overlap", "disjoint", "dense-overlap"],
    )
    def test_conv1d_forward_and_grads_bitwise(self, kernel, stride, padding):
        rng = np.random.default_rng(13)
        layer = Conv1d(2, 3, kernel, stride=stride, padding=padding,
                       rng=np.random.default_rng(7))
        data = rng.standard_normal((4, 2, 17))
        fast_in = Tensor(data.copy(), requires_grad=True)
        fast_out = layer(fast_in)
        fast_out.sum().backward()
        fast_grads = [fast_in.grad.copy(), layer.weight.grad.copy(), layer.bias.grad.copy()]
        layer.zero_grad()
        loop_in = Tensor(data.copy(), requires_grad=True)
        loop_out = _conv1d_loop(layer, loop_in)
        loop_out.sum().backward()
        loop_grads = [loop_in.grad, layer.weight.grad, layer.bias.grad]
        layer.zero_grad()
        assert _bitwise_equal(fast_out.data, loop_out.data)
        for fast, loop in zip(fast_grads, loop_grads):
            assert _bitwise_equal(fast, loop)

    @pytest.mark.parametrize("kernel,stride", [(2, 2), (3, 1), (2, 1)],
                             ids=["disjoint", "overlap", "dense"])
    def test_maxpool1d_with_ties_bitwise(self, kernel, stride):
        rng = np.random.default_rng(21)
        # Small integers guarantee repeated values inside windows: the
        # backward's tie handling must route gradients identically.
        data = rng.integers(-2, 3, size=(4, 3, 16)).astype(np.float64)
        layer = MaxPool1d(kernel, stride=stride)
        fast_in = Tensor(data.copy(), requires_grad=True)
        fast_out = layer(fast_in)
        fast_out.sum().backward()
        loop_in = Tensor(data.copy(), requires_grad=True)
        loop_out = _maxpool1d_loop(layer, loop_in)
        loop_out.sum().backward()
        assert _bitwise_equal(fast_out.data, loop_out.data)
        assert _bitwise_equal(fast_in.grad, loop_in.grad)
