"""Unit tests for the neural and composite baselines (DNN, CNN, ANVIL, AdvLoc,
SANGRIA, WiDeep) and the baseline registry."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import (
    AdvLocLocalizer,
    ANVILLocalizer,
    CNNLocalizer,
    DNNLocalizer,
    SANGRIALocalizer,
    WiDeepLocalizer,
)
from repro.interfaces import DifferentiableLocalizer
from repro.registry import LOCALIZERS


class TestRegistry:
    def test_contains_paper_baselines(self):
        for name in ("KNN", "GPC", "DNN", "CNN", "AdvLoc", "ANVIL", "SANGRIA", "WiDeep"):
            assert name in LOCALIZERS.names(tag="baseline")

    def test_make_localizer_passes_kwargs(self):
        model = LOCALIZERS.create("DNN", epochs=5)
        assert model.epochs == 5

    def test_unknown_baseline_raises(self):
        with pytest.raises(KeyError):
            LOCALIZERS.create("ResNet")


class TestDNN:
    def test_clean_accuracy(self, trained_dnn, tiny_campaign):
        assert trained_dnn.mean_error(tiny_campaign.test_all_devices()) < 5.0

    def test_loss_history_decreases(self, trained_dnn):
        assert trained_dnn.loss_history[-1] < trained_dnn.loss_history[0]

    def test_loss_gradient_shape(self, trained_dnn, tiny_campaign):
        test = tiny_campaign.test_for("OP3")
        gradient = trained_dnn.loss_gradient(test.features, test.labels)
        assert gradient.shape == test.features.shape
        assert np.abs(gradient).sum() > 0

    def test_is_differentiable_localizer(self, trained_dnn):
        assert isinstance(trained_dnn, DifferentiableLocalizer)

    def test_predict_proba_distribution(self, trained_dnn, tiny_campaign):
        proba = trained_dnn.predict_proba(tiny_campaign.test_for("S7").features)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-9)

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            DNNLocalizer().predict(np.zeros((1, 4)))

    def test_invalid_hyperparameters(self):
        with pytest.raises(ValueError):
            DNNLocalizer(epochs=0)
        with pytest.raises(ValueError):
            DNNLocalizer(batch_size=0)


class TestCNN:
    def test_fits_and_predicts(self, tiny_campaign):
        model = CNNLocalizer(channels=4, epochs=10, seed=0).fit(tiny_campaign.train)
        predictions = model.predict_dataset(tiny_campaign.test_for("OP3"))
        assert predictions.shape[0] == tiny_campaign.num_classes
        assert model.mean_error(tiny_campaign.test_for("OP3")) < 10.0


class TestAdvLoc:
    def test_adversarial_augmentation_grows_training_set(self, tiny_campaign):
        model = AdvLocLocalizer(adversarial_fraction=0.5, epochs=10, warmup_epochs=3, seed=0)
        features = tiny_campaign.train.features
        labels = tiny_campaign.train.labels
        model._num_aps = tiny_campaign.train.num_aps
        model._num_classes = tiny_campaign.train.num_classes
        model.network = model.build_network(model._num_aps, model._num_classes)
        augmented_features, augmented_labels = model.prepare_training_data(features, labels)
        expected_extra = int(round(0.5 * features.shape[0]))
        assert augmented_features.shape[0] == features.shape[0] + expected_extra
        assert augmented_labels.shape[0] == augmented_features.shape[0]

    def test_zero_fraction_is_plain_dnn_data(self, tiny_campaign):
        model = AdvLocLocalizer(adversarial_fraction=0.0, epochs=5, seed=0)
        model._num_aps = tiny_campaign.train.num_aps
        model._num_classes = tiny_campaign.train.num_classes
        model.network = model.build_network(model._num_aps, model._num_classes)
        features, labels = model.prepare_training_data(
            tiny_campaign.train.features, tiny_campaign.train.labels
        )
        assert features.shape == tiny_campaign.train.features.shape

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            AdvLocLocalizer(adversarial_fraction=1.5)

    def test_end_to_end_fit_predict(self, tiny_campaign):
        model = AdvLocLocalizer(epochs=12, warmup_epochs=4, seed=0).fit(tiny_campaign.train)
        assert model.mean_error(tiny_campaign.test_all_devices()) < 6.0


class TestANVIL:
    def test_fit_predict_and_gradient(self, tiny_campaign):
        model = ANVILLocalizer(embed_dim=16, num_groups=2, num_heads=2, epochs=15, seed=0)
        model.fit(tiny_campaign.train)
        assert model.mean_error(tiny_campaign.test_all_devices()) < 6.0
        gradient = model.loss_gradient(
            tiny_campaign.test_for("OP3").features, tiny_campaign.test_for("OP3").labels
        )
        assert gradient.shape == tiny_campaign.test_for("OP3").features.shape


class TestSANGRIA:
    def test_fit_predict(self, tiny_campaign):
        model = SANGRIALocalizer(
            hidden_dims=(32, 16), pretrain_epochs=10, num_rounds=5, seed=0
        ).fit(tiny_campaign.train)
        assert model.mean_error(tiny_campaign.test_all_devices()) < 8.0

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            SANGRIALocalizer().predict(np.zeros((1, 4)))

    def test_predict_proba_distribution(self, tiny_campaign):
        model = SANGRIALocalizer(
            hidden_dims=(16,), pretrain_epochs=5, num_rounds=3, seed=0
        ).fit(tiny_campaign.train)
        proba = model.predict_proba(tiny_campaign.test_for("S7").features)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-9)


class TestWiDeep:
    def test_fit_predict(self, tiny_campaign):
        model = WiDeepLocalizer(hidden_dims=(32,), pretrain_epochs=10, seed=0).fit(
            tiny_campaign.train
        )
        assert model.mean_error(tiny_campaign.test_all_devices()) < 8.0

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            WiDeepLocalizer().predict(np.zeros((1, 4)))


class TestWiDeepGradients:
    def test_loss_gradient_chains_through_encoder(self, tiny_campaign):
        model = WiDeepLocalizer(hidden_dims=(16,), pretrain_epochs=8, seed=0).fit(
            tiny_campaign.train
        )
        test = tiny_campaign.test_for("LG")
        gradient = model.loss_gradient(test.features, test.labels)
        assert gradient.shape == test.features.shape
        assert np.isfinite(gradient).all()
        assert np.abs(gradient).sum() > 0

    def test_gradient_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            WiDeepLocalizer().loss_gradient(np.zeros((1, 4)), np.zeros(1, dtype=int))


class TestEpochLossWeighting:
    def test_partial_final_batch_is_sample_weighted(self, tiny_campaign, monkeypatch):
        """Regression: the epoch loss is a per-sample mean, not a per-batch mean.

        With a batch size that does not divide the training set, the final
        short batch used to count as a full batch's worth of loss, biasing
        ``loss_history`` toward whatever samples land in the remainder.  Spy
        on the per-batch losses and check the recorded epoch value is their
        size-weighted average.
        """
        from repro.nn import fastpath

        train = tiny_campaign.train
        num_samples = train.features.shape[0]
        batch_size = num_samples - 1  # batches of (n - 1) and 1
        recorded = []
        original = fastpath.train_step_ce

        def spy(*args, **kwargs):
            loss = original(*args, **kwargs)
            recorded.append(loss)
            return loss

        monkeypatch.setattr(fastpath, "train_step_ce", spy)
        model = DNNLocalizer(
            hidden_dims=(16,), epochs=1, batch_size=batch_size, seed=0
        ).fit(train)
        assert len(recorded) == 2
        weighted = np.average(recorded, weights=[num_samples - 1, 1])
        assert model.loss_history[0] == pytest.approx(weighted, abs=0.0)
        # The plain per-batch mean is measurably different on this data, so
        # the test genuinely distinguishes the two weightings.
        assert model.loss_history[0] != pytest.approx(np.mean(recorded), abs=1e-12)
