"""Unit tests for FGSM, PGD and MIM crafting methods."""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks import FGSMAttack, MIMAttack, PGDAttack, ThreatModel


class QuadraticVictim:
    """A toy victim whose loss gradient is analytically known.

    Loss = 0.5 * ||x - target||^2 per sample, so the gradient is x - target.
    """

    def __init__(self, target: float = 0.5) -> None:
        self.target = target
        self.calls = 0

    def loss_gradient(self, features: np.ndarray, labels: np.ndarray) -> np.ndarray:
        self.calls += 1
        return np.asarray(features, dtype=np.float64) - self.target


@pytest.fixture()
def features(rng):
    return rng.uniform(0.2, 0.8, size=(6, 10))


@pytest.fixture()
def labels():
    return np.arange(6) % 3


class TestFGSM:
    def test_perturbation_magnitude_is_epsilon_on_targets(self, features, labels):
        threat = ThreatModel(epsilon=0.1, phi_percent=100.0, seed=0)
        adversarial = FGSMAttack(threat).perturb(features, labels, QuadraticVictim())
        delta = np.abs(adversarial - features)
        inside = (features > 0.1) & (features < 0.9)  # away from clipping
        np.testing.assert_allclose(delta[inside], 0.1, atol=1e-12)

    def test_only_targeted_aps_are_modified(self, features, labels):
        threat = ThreatModel(epsilon=0.2, phi_percent=30.0, seed=1)
        mask = threat.target_mask(features.shape[1])
        adversarial = FGSMAttack(threat).perturb(features, labels, QuadraticVictim())
        np.testing.assert_allclose(adversarial[:, ~mask], features[:, ~mask])
        assert np.abs(adversarial[:, mask] - features[:, mask]).max() > 0

    def test_null_threat_returns_copy(self, features, labels):
        adversarial = FGSMAttack(ThreatModel(epsilon=0.0, phi_percent=0.0)).perturb(
            features, labels, QuadraticVictim()
        )
        np.testing.assert_allclose(adversarial, features)
        assert adversarial is not features

    def test_output_respects_feature_box(self, features, labels):
        threat = ThreatModel(epsilon=0.9, phi_percent=100.0)
        adversarial = FGSMAttack(threat).perturb(features, labels, QuadraticVictim())
        assert adversarial.min() >= 0.0 and adversarial.max() <= 1.0

    def test_moves_along_gradient_sign(self, labels):
        features = np.full((3, 4), 0.4)
        threat = ThreatModel(epsilon=0.1, phi_percent=100.0)
        adversarial = FGSMAttack(threat).perturb(features, labels[:3], QuadraticVictim(target=0.9))
        # Gradient is x - 0.9 < 0, so the perturbation moves features down.
        assert (adversarial < features).all()

    def test_explicit_target_mask_overrides_threat(self, features, labels):
        threat = ThreatModel(epsilon=0.1, phi_percent=100.0)
        mask = np.zeros(features.shape[1], dtype=bool)
        mask[0] = True
        adversarial = FGSMAttack(threat).perturb(
            features, labels, QuadraticVictim(), target_mask=mask
        )
        np.testing.assert_allclose(adversarial[:, 1:], features[:, 1:])

    def test_bad_mask_shape_raises(self, features, labels):
        threat = ThreatModel(epsilon=0.1, phi_percent=100.0)
        with pytest.raises(ValueError):
            FGSMAttack(threat).perturb(
                features, labels, QuadraticVictim(), target_mask=np.ones(3, dtype=bool)
            )

    def test_repr_mentions_parameters(self):
        assert "epsilon=0.1" in repr(FGSMAttack(ThreatModel(epsilon=0.1)))


class TestPGD:
    def test_stays_within_epsilon_ball(self, features, labels):
        threat = ThreatModel(epsilon=0.15, phi_percent=100.0, seed=2)
        adversarial = PGDAttack(threat, num_steps=8).perturb(features, labels, QuadraticVictim())
        assert np.abs(adversarial - features).max() <= 0.15 + 1e-12

    def test_respects_feature_box(self, features, labels):
        threat = ThreatModel(epsilon=0.5, phi_percent=100.0)
        adversarial = PGDAttack(threat).perturb(features, labels, QuadraticVictim())
        assert adversarial.min() >= 0.0 and adversarial.max() <= 1.0

    def test_iterates_victim_gradient(self, features, labels):
        victim = QuadraticVictim()
        threat = ThreatModel(epsilon=0.1, phi_percent=100.0)
        PGDAttack(threat, num_steps=5).perturb(features, labels, victim)
        assert victim.calls == 5

    def test_untouched_aps_stay_clean(self, features, labels):
        threat = ThreatModel(epsilon=0.2, phi_percent=20.0, seed=3)
        mask = threat.target_mask(features.shape[1])
        adversarial = PGDAttack(threat).perturb(features, labels, QuadraticVictim())
        np.testing.assert_allclose(adversarial[:, ~mask], features[:, ~mask])

    def test_random_start_can_be_disabled(self, features, labels):
        threat = ThreatModel(epsilon=0.1, phi_percent=100.0)
        a = PGDAttack(threat, num_steps=3, random_start=False).perturb(
            features, labels, QuadraticVictim()
        )
        b = PGDAttack(threat, num_steps=3, random_start=False).perturb(
            features, labels, QuadraticVictim()
        )
        np.testing.assert_allclose(a, b)

    def test_invalid_steps(self):
        with pytest.raises(ValueError):
            PGDAttack(ThreatModel(), num_steps=0)

    def test_null_threat_noop(self, features, labels):
        adversarial = PGDAttack(ThreatModel(epsilon=0.0, phi_percent=0.0)).perturb(
            features, labels, QuadraticVictim()
        )
        np.testing.assert_allclose(adversarial, features)


class TestMIM:
    def test_stays_within_epsilon_ball(self, features, labels):
        threat = ThreatModel(epsilon=0.2, phi_percent=100.0)
        adversarial = MIMAttack(threat, num_steps=6).perturb(features, labels, QuadraticVictim())
        assert np.abs(adversarial - features).max() <= 0.2 + 1e-12

    def test_momentum_accumulates_and_perturbs(self, features, labels):
        threat = ThreatModel(epsilon=0.1, phi_percent=100.0)
        adversarial = MIMAttack(threat, num_steps=4).perturb(features, labels, QuadraticVictim())
        assert np.abs(adversarial - features).max() > 0.05

    def test_zero_gradient_leaves_input_unchanged(self, labels):
        class ZeroVictim:
            def loss_gradient(self, feats, labs):
                return np.zeros_like(feats)

        features = np.full((3, 5), 0.5)
        threat = ThreatModel(epsilon=0.2, phi_percent=100.0)
        adversarial = MIMAttack(threat).perturb(features, labels[:3], ZeroVictim())
        np.testing.assert_allclose(adversarial, features)

    def test_invalid_hyperparameters(self):
        with pytest.raises(ValueError):
            MIMAttack(ThreatModel(), num_steps=0)
        with pytest.raises(ValueError):
            MIMAttack(ThreatModel(), decay=-1.0)

    def test_respects_targeted_subset(self, features, labels):
        threat = ThreatModel(epsilon=0.3, phi_percent=40.0, seed=4)
        mask = threat.target_mask(features.shape[1])
        adversarial = MIMAttack(threat).perturb(features, labels, QuadraticVictim())
        np.testing.assert_allclose(adversarial[:, ~mask], features[:, ~mask])


class TestOneDimensionalInputs:
    """``perturb`` accepts a single fingerprint (1-D) as well as a batch."""

    @pytest.mark.parametrize(
        "build_attack",
        [
            lambda t: FGSMAttack(t),
            lambda t: PGDAttack(t, random_start=False),
            lambda t: MIMAttack(t),
        ],
        ids=["fgsm", "pgd", "mim"],
    )
    def test_single_fingerprint_matches_batch_row(self, features, labels, build_attack):
        """Regression: MIM crashed on 1-D input; now every attack must treat a
        lone fingerprint exactly like the corresponding one-row batch."""
        threat = ThreatModel(epsilon=0.2, phi_percent=50.0, seed=1)
        attack = build_attack(threat)
        row = attack.perturb(features[2], labels[2], QuadraticVictim())
        assert row.shape == features[2].shape  # squeezed back to 1-D
        batch = attack.perturb(features[2:3], labels[2:3], QuadraticVictim())
        np.testing.assert_array_equal(row, batch[0])


class TestBatchedVsRowwiseIdentity:
    """One batched ``perturb`` call is bit-identical to a per-row loop.

    This is the invariant that let the engine swap its per-fingerprint
    crafting loop for a single batched call: every step of FGSM/PGD/MIM is
    elementwise (sign, clip, per-row momentum normalisation), so batching
    changes the work schedule, never the bits.  PGD is checked without its
    random start — that draws ONE seeded stream across the batch, so a
    per-row loop legitimately sees different noise.
    """

    @pytest.mark.parametrize(
        "build_attack",
        [
            lambda t: FGSMAttack(t),
            lambda t: PGDAttack(t, random_start=False),
            lambda t: MIMAttack(t),
        ],
        ids=["fgsm", "pgd", "mim"],
    )
    def test_bitwise(self, features, labels, build_attack):
        threat = ThreatModel(epsilon=0.3, phi_percent=50.0, seed=5)
        attack = build_attack(threat)
        batched = attack.perturb(features, labels, QuadraticVictim())
        rowwise = np.stack(
            [
                attack.perturb(features[i], labels[i], QuadraticVictim())
                for i in range(features.shape[0])
            ]
        )
        assert batched.shape == rowwise.shape
        assert np.array_equal(
            batched.view(np.uint64), rowwise.view(np.uint64)
        ), "batched attack diverged bitwise from the per-fingerprint loop"
