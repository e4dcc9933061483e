"""End-to-end integration tests across the whole library.

These exercise the complete pipeline the paper describes: simulate a building
campaign, train CALLOC and baselines on the offline database, mount white-box
MITM attacks on the online fingerprints of heterogeneous devices, and compare
localization errors.
"""

from __future__ import annotations

import numpy as np

from repro import CALLOC, localization_errors
from repro.attacks import (
    FGSMAttack,
    MIMAttack,
    PGDAttack,
    SignalSpoofingAttack,
    ThreatModel,
    attack_dataset,
)
from repro.baselines import DNNLocalizer, KNNLocalizer
from repro.data import load_dataset_csv, save_dataset_csv
from repro.registry import LOCALIZERS


class TestOfflineOnlinePipeline:
    def test_calloc_beats_random_guessing_on_every_device(self, trained_calloc, tiny_campaign):
        positions = tiny_campaign.train.rp_positions
        diameter = np.linalg.norm(positions.max(axis=0) - positions.min(axis=0))
        for device, test in tiny_campaign.test_by_device.items():
            assert trained_calloc.mean_error(test) < diameter / 2, device

    def test_calloc_and_dnn_agree_on_interface(self, trained_calloc, trained_dnn, tiny_campaign):
        test = tiny_campaign.test_for("LG")
        for model in (trained_calloc, trained_dnn):
            errors = model.evaluate(test)
            assert errors.shape == (test.num_samples,)
            assert (errors >= 0).all()

    def test_localization_errors_helper_consistency(self, trained_knn, tiny_campaign):
        test = tiny_campaign.test_for("HTC")
        predictions = trained_knn.predict_dataset(test)
        errors = localization_errors(predictions, test.labels, test.rp_positions)
        np.testing.assert_allclose(errors, trained_knn.evaluate(test))


class TestAttackResilienceShape:
    """Qualitative shape checks mirroring the paper's headline claims."""

    def test_white_box_fgsm_hurts_undefended_dnn_more_than_calloc(
        self, trained_calloc, trained_dnn, tiny_campaign
    ):
        test = tiny_campaign.test_all_devices()
        threat = ThreatModel(epsilon=0.4, phi_percent=75.0, seed=3)
        calloc_errors = []
        dnn_errors = []
        for seed in (3, 4, 5):
            threat = ThreatModel(epsilon=0.4, phi_percent=75.0, seed=seed)
            calloc_errors.append(
                trained_calloc.mean_error(
                    attack_dataset(test, FGSMAttack(threat), trained_calloc)
                )
            )
            dnn_errors.append(
                trained_dnn.mean_error(attack_dataset(test, FGSMAttack(threat), trained_dnn))
            )
        assert np.mean(calloc_errors) < np.mean(dnn_errors)

    def test_attack_strength_grows_with_phi_for_undefended_model(
        self, trained_dnn, tiny_campaign
    ):
        test = tiny_campaign.test_all_devices()
        errors = []
        for phi in (10.0, 100.0):
            per_seed = []
            for seed in (1, 2, 3):
                threat = ThreatModel(epsilon=0.3, phi_percent=phi, seed=seed)
                attacked = attack_dataset(test, FGSMAttack(threat), trained_dnn)
                per_seed.append(trained_dnn.mean_error(attacked))
            errors.append(np.mean(per_seed))
        assert errors[-1] > errors[0]

    def test_iterative_attacks_are_at_least_as_strong_as_clean(self, trained_dnn, tiny_campaign):
        test = tiny_campaign.test_all_devices()
        clean_error = trained_dnn.mean_error(test)
        threat = ThreatModel(epsilon=0.3, phi_percent=60.0, seed=2)
        for attack_cls in (PGDAttack, MIMAttack):
            attacked = attack_dataset(test, attack_cls(threat), trained_dnn)
            assert trained_dnn.mean_error(attacked) >= clean_error

    def test_spoofing_attack_runs_end_to_end(self, trained_dnn, tiny_campaign):
        test = tiny_campaign.test_for("BLU")
        threat = ThreatModel(epsilon=0.2, phi_percent=40.0, seed=6)
        spoof = SignalSpoofingAttack(threat, method="FGSM")
        attacked = attack_dataset(test, spoof, trained_dnn)
        assert attacked.features.min() >= 0.0 and attacked.features.max() <= 1.0


class TestDataInterchange:
    def test_campaign_csv_export_feeds_models(self, tiny_campaign, tmp_path):
        path = save_dataset_csv(tiny_campaign.train, tmp_path / "train.csv")
        reloaded = load_dataset_csv(path)
        model = KNNLocalizer(k=3).fit(reloaded)
        test = tiny_campaign.test_for("S7")
        assert model.mean_error(test) < 6.0

    def test_registry_models_run_on_same_campaign(self, tiny_campaign):
        for name, kwargs in (
            ("KNN", {}),
            ("NaiveBayes", {}),
            ("DNN", {"epochs": 8, "seed": 0}),
        ):
            model = LOCALIZERS.create(name, **kwargs).fit(tiny_campaign.train)
            error = model.mean_error(tiny_campaign.test_for("OP3"))
            assert np.isfinite(error), name


class TestReproducibility:
    def test_calloc_training_is_deterministic_given_seed(self, tiny_campaign):
        def train():
            model = CALLOC(
                embed_dim=16, attention_dim=8, num_lessons=3, epochs_per_lesson=2, seed=7
            )
            model.fit(tiny_campaign.train)
            return model.predict(tiny_campaign.test_for("S7").features)

        np.testing.assert_array_equal(train(), train())

    def test_dnn_training_is_deterministic_given_seed(self, tiny_campaign):
        def train():
            return (
                DNNLocalizer(hidden_dims=(16,), epochs=8, seed=3)
                .fit(tiny_campaign.train)
                .predict(tiny_campaign.test_for("S7").features)
            )

        np.testing.assert_array_equal(train(), train())
