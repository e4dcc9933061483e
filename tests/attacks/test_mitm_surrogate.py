"""Unit tests for MITM scenario wrappers and surrogate gradients."""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks import (
    FGSMAttack,
    MIMAttack,
    MITMScenario,
    PGDAttack,
    SignalManipulationAttack,
    SignalSpoofingAttack,
    SurrogateGradientModel,
    ThreatModel,
    attack_dataset,
)
from repro.data import RSS_FLOOR_DBM
from repro.registry import available_attacks, make_attack


class LinearVictim:
    """Victim with constant positive gradient (pushes features upward)."""

    def loss_gradient(self, features, labels):
        return np.ones_like(features)


class TestRegistry:
    def test_contains_three_methods(self):
        assert set(available_attacks("crafting")) == {"FGSM", "PGD", "MIM"}

    @pytest.mark.parametrize("name, cls", [("FGSM", FGSMAttack), ("pgd", PGDAttack), ("Mim", MIMAttack)])
    def test_make_attack_is_case_insensitive(self, name, cls):
        assert isinstance(make_attack(name, ThreatModel()), cls)

    def test_unknown_method_raises(self):
        with pytest.raises(KeyError):
            make_attack("CW", ThreatModel())


class TestMITMVariants:
    def test_manipulation_delegates_to_crafter(self, rng):
        features = rng.uniform(0.2, 0.8, size=(4, 8))
        labels = np.zeros(4, dtype=int)
        threat = ThreatModel(epsilon=0.1, phi_percent=100.0)
        manipulation = SignalManipulationAttack(threat, method="FGSM")
        direct = FGSMAttack(threat)
        np.testing.assert_allclose(
            manipulation.perturb(features, labels, LinearVictim()),
            direct.perturb(features, labels, LinearVictim()),
        )

    def test_spoofing_overwrites_targeted_aps_with_replay(self, rng):
        features = rng.uniform(0.2, 0.8, size=(5, 6))
        labels = np.zeros(5, dtype=int)
        threat = ThreatModel(epsilon=0.0, phi_percent=50.0, seed=1)
        # epsilon 0 isolates the replay step (no crafted perturbation on top).
        replay = np.full(6, 0.9)
        spoof = SignalSpoofingAttack(
            ThreatModel(epsilon=0.05, phi_percent=50.0, seed=1), replay_features=replay
        )
        adversarial = spoof.perturb(features, labels, LinearVictim())
        mask = ThreatModel(epsilon=0.05, phi_percent=50.0, seed=1).target_mask(6)
        # Spoofed columns sit near the replay value (within the small epsilon).
        assert np.abs(adversarial[:, mask] - 0.9).max() <= 0.05 + 1e-9
        np.testing.assert_allclose(adversarial[:, ~mask], features[:, ~mask])

    def test_spoofing_defaults_to_dataset_mean_replay(self, rng):
        features = rng.uniform(0.2, 0.8, size=(5, 6))
        labels = np.zeros(5, dtype=int)
        spoof = SignalSpoofingAttack(ThreatModel(epsilon=0.05, phi_percent=30.0, seed=2))
        adversarial = spoof.perturb(features, labels, LinearVictim())
        assert adversarial.shape == features.shape

    def test_spoofing_rejects_bad_replay_shape(self, rng):
        spoof = SignalSpoofingAttack(
            ThreatModel(epsilon=0.1, phi_percent=30.0), replay_features=np.zeros(3)
        )
        with pytest.raises(ValueError):
            spoof.perturb(rng.random((2, 6)), np.zeros(2, dtype=int), LinearVictim())

    def test_spoofing_null_threat_is_noop(self, rng):
        features = rng.random((3, 4))
        spoof = SignalSpoofingAttack(ThreatModel(epsilon=0.0, phi_percent=0.0))
        np.testing.assert_allclose(
            spoof.perturb(features, np.zeros(3, dtype=int), LinearVictim()), features
        )

    def test_scenario_builder(self):
        scenario = MITMScenario(ThreatModel(epsilon=0.1, phi_percent=10.0), variant="spoofing")
        assert isinstance(scenario.build(), SignalSpoofingAttack)
        scenario = MITMScenario(ThreatModel(), variant="manipulation")
        assert isinstance(scenario.build(), SignalManipulationAttack)

    def test_scenario_rejects_unknown_variant(self):
        with pytest.raises(ValueError):
            MITMScenario(ThreatModel(), variant="jamming").build()


class TestAttackDataset:
    def test_attacked_dataset_preserves_labels_and_shape(self, tiny_campaign, trained_dnn):
        test = tiny_campaign.test_for("S7")
        threat = ThreatModel(epsilon=0.2, phi_percent=50.0, seed=3)
        attacked = attack_dataset(test, FGSMAttack(threat), trained_dnn)
        assert attacked.num_samples == test.num_samples
        np.testing.assert_array_equal(attacked.labels, test.labels)
        assert attacked.rss_dbm.min() >= RSS_FLOOR_DBM

    def test_attack_increases_localization_error(self, tiny_campaign, trained_dnn):
        test = tiny_campaign.test_all_devices()
        threat = ThreatModel(epsilon=0.4, phi_percent=100.0, seed=3)
        attacked = attack_dataset(test, FGSMAttack(threat), trained_dnn)
        assert trained_dnn.mean_error(attacked) > trained_dnn.mean_error(test)


class TestSurrogate:
    def test_surrogate_imitates_knn_and_provides_gradients(self, tiny_campaign, trained_knn):
        train = tiny_campaign.train
        surrogate = SurrogateGradientModel(
            num_aps=train.num_aps, num_classes=train.num_classes, epochs=100, seed=0
        )
        victim_predictions = trained_knn.predict(train.features)
        surrogate.fit(train.features, victim_predictions)
        agreement = (surrogate.predict(train.features) == victim_predictions).mean()
        assert agreement > 0.7
        gradient = surrogate.loss_gradient(train.features[:5], train.labels[:5])
        assert gradient.shape == (5, train.num_aps)
        assert np.abs(gradient).sum() > 0

    def test_gradient_before_fit_raises(self):
        surrogate = SurrogateGradientModel(num_aps=4, num_classes=3)
        with pytest.raises(RuntimeError):
            surrogate.loss_gradient(np.zeros((2, 4)), np.zeros(2, dtype=int))
