"""The graph-free CALLOC kernels against the autograd graph, bit for bit.

Every comparison is on raw float64 bits: the kernels replay the autograd
op sequence, so any difference — one ulp in one gradient — is a bug.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CALLOC, CALLOCModel, kernels
from repro.core.trainer import input_loss_gradient
from repro.nn import CrossEntropyLoss, Tensor, no_grad
from repro.nn.fastpath import ce_target_matrix

NUM_APS, NUM_REFS = 165, 61
BLOCK = max(1, kernels.BLOCK_ELEMENTS // (NUM_APS * NUM_REFS))


def _bits(array) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(array, dtype=np.float64)).view(np.uint64)


def assert_bitwise(actual, expected) -> None:
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(_bits(actual), _bits(expected))


def _model(log_bandwidth: float = np.log(0.08)) -> CALLOCModel:
    """A paper-sized model with every parameter moved off its initialisation."""
    rng = np.random.default_rng(3)
    model = CALLOCModel(
        num_aps=NUM_APS,
        num_classes=NUM_REFS,
        reference_features=rng.random((NUM_REFS, NUM_APS)),
        reference_positions=rng.random((NUM_REFS, 2)) * 30.0,
        rng=np.random.default_rng(5),
    )
    for param in model.parameters():
        param.data = param.data + rng.normal(0.0, 0.05, size=param.data.shape)
    model.log_bandwidth.data = np.array([log_bandwidth])
    return model


def _features(rows: int, seed: int = 9) -> np.ndarray:
    return np.random.default_rng(seed).random((rows, NUM_APS))


def _labels(rows: int, seed: int = 9) -> np.ndarray:
    return np.random.default_rng(seed + 1).integers(0, NUM_REFS, size=rows)


def _autograd_train_step(model, features, labels, weight) -> float:
    inputs = Tensor(features)
    loss = CrossEntropyLoss()(model(inputs), labels)
    if weight > 0:
        loss = loss + model.embedding_reconstruction_loss(inputs) * weight
    loss.backward()
    return loss.item()


def _rng_state(model) -> dict:
    return model.original_embedding.dropout.rng.bit_generator.state


class TestTrainStep:
    @pytest.mark.parametrize("weight", [0.0, 0.05])
    @pytest.mark.parametrize("log_bandwidth", [np.log(0.08), np.log(0.2)])
    def test_loss_grads_and_rng_match_autograd(self, weight, log_bandwidth):
        features, labels = _features(32), _labels(32)
        reference, fused = _model(log_bandwidth), _model(log_bandwidth)
        reference.train()
        fused.train()
        expected = _autograd_train_step(reference, features, labels, weight)
        targets = ce_target_matrix(labels, NUM_REFS, 0.0)
        loss = kernels.train_step(fused, features, targets, weight)

        assert _bits(loss) == _bits(expected)
        names = [name for name, _ in reference.named_parameters()]
        for name, want, got in zip(
            names, reference.parameters(), fused.parameters()
        ):
            if want.grad is None:
                assert got.grad is None, name
            else:
                assert_bitwise(got.grad, want.grad)
        assert _rng_state(fused) == _rng_state(reference)
        # Without the reconstruction term the decoders get no gradient.
        assert (fused.curriculum_embedding._decoder.weight.grad is None) == (weight == 0)

    def test_grads_accumulate_onto_existing_ones(self):
        features, labels = _features(16), _labels(16)
        reference, fused = _model(), _model()
        for model in (reference, fused):
            for param in model.parameters():
                param.grad = np.full(param.data.shape, 0.25)
        _autograd_train_step(reference, features, labels, 0.05)
        kernels.train_step(fused, features, ce_target_matrix(labels, NUM_REFS, 0.0), 0.05)
        for want, got in zip(reference.parameters(), fused.parameters()):
            assert_bitwise(got.grad, want.grad)


class TestEvalKernels:
    @pytest.mark.parametrize("rows", [1, BLOCK, BLOCK + 1, 198])
    def test_input_gradient_matches_autograd(self, rows):
        model = _model()
        model.eval()
        features, labels = _features(rows), _labels(rows)
        inputs = Tensor(features, requires_grad=True)
        CrossEntropyLoss()(model(inputs), labels).backward()
        assert_bitwise(kernels.input_gradient(model, features, labels), inputs.grad)

    @pytest.mark.parametrize(
        "layout", [np.asfortranarray, lambda x: x[::2]], ids=["fortran", "strided"]
    )
    def test_other_layouts_keep_autograd(self, layout):
        """Autograd's vote sums round by layout; only C-order batches fuse."""
        model = _model()
        features = layout(_features(2 * BLOCK + 3))
        labels = _labels(features.shape[0])
        assert not kernels.fusable(model, features)
        assert not kernels.fusable(model, features[0])
        gradient = input_loss_gradient(model, CrossEntropyLoss(), features, labels)
        inputs = Tensor(features, requires_grad=True)
        CrossEntropyLoss()(model(inputs), labels).backward()
        assert_bitwise(gradient, inputs.grad)

    @pytest.mark.parametrize("rows", [0, 1, BLOCK + 1, 198])
    def test_logits_match_autograd(self, rows):
        model = _model()
        model.eval()
        features = _features(rows)
        with no_grad():
            expected = model(Tensor(features)).data
        assert_bitwise(kernels.logits(model, features), expected)

    def test_training_mode_logits_draw_like_autograd(self):
        reference, fused = _model(), _model()
        features = _features(5)
        with no_grad():
            expected = reference(Tensor(features)).data
        assert_bitwise(kernels.logits(fused, features), expected)
        assert _rng_state(fused) == _rng_state(reference)


def _force_autograd(monkeypatch) -> None:
    monkeypatch.setattr(kernels, "fusable", lambda model, features=None: False)


class TestLocalizerRouting:
    @pytest.fixture()
    def fitted(self, tiny_campaign):
        return CALLOC(embed_dim=16, attention_dim=8, num_lessons=2, epochs_per_lesson=2).fit(
            tiny_campaign.train
        )

    def test_predict_and_gradient_match_autograd(self, fitted, tiny_campaign, monkeypatch):
        test = tiny_campaign.test_for("OP3")
        features, labels = test.features, test.labels
        assert kernels.fusable(fitted.model, features)
        fused = (
            fitted.predict(features),
            fitted.predict_proba(features),
            fitted.loss_gradient(features, labels),
        )
        _force_autograd(monkeypatch)
        reference = (
            fitted.predict(features),
            fitted.predict_proba(features),
            fitted.loss_gradient(features, labels),
        )
        np.testing.assert_array_equal(fused[0], reference[0])
        assert_bitwise(fused[1], reference[1])
        assert_bitwise(fused[2], reference[2])

    def test_gradient_under_no_grad_raises(self, fitted, tiny_campaign):
        test = tiny_campaign.test_for("OP3")
        with no_grad(), pytest.raises(RuntimeError, match="does not require grad"):
            fitted.loss_gradient(test.features, test.labels)

    @pytest.mark.parametrize(
        "params",
        [{}, {"adaptive": False}, {"use_curriculum": False}],
        ids=["default", "static", "no-curriculum"],
    )
    def test_fit_matches_autograd(self, params, tiny_campaign, monkeypatch):
        settings = dict(embed_dim=16, attention_dim=8, num_lessons=3, epochs_per_lesson=2)
        fused = CALLOC(**settings, **params).fit(tiny_campaign.train)
        assert kernels.fusable(fused.model)
        _force_autograd(monkeypatch)
        reference = CALLOC(**settings, **params).fit(tiny_campaign.train)
        assert fused.training_report.loss_curve() == reference.training_report.loss_curve()
        want, got = reference.model.state_dict(), fused.model.state_dict()
        assert want.keys() == got.keys()
        for name in want:
            assert_bitwise(got[name], want[name])


class _ScaledForward(CALLOCModel):
    """Overrides ``forward``: the kernels must not replace it."""

    def forward(self, inputs: Tensor) -> Tensor:
        return super().forward(inputs) * 2.0


def test_subclass_overriding_forward_keeps_autograd():
    base = _model()
    model = _ScaledForward(
        num_aps=NUM_APS,
        num_classes=NUM_REFS,
        reference_features=base.reference_features,
        reference_positions=base.reference_positions,
    )
    model.load_state_dict(base.state_dict())
    assert kernels.fusable(base) and not kernels.fusable(model)

    features, labels = _features(8), _labels(8)
    gradient = input_loss_gradient(model, CrossEntropyLoss(), features, labels)
    inputs = Tensor(features, requires_grad=True)
    CrossEntropyLoss()(model(inputs), labels).backward()
    assert_bitwise(gradient, inputs.grad)
    assert not np.array_equal(
        gradient, input_loss_gradient(base, CrossEntropyLoss(), features, labels)
    )
