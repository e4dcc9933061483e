"""Curriculum/LessonBuilder invariants for every gradient-capable localizer.

The paper's curriculum guarantees (Sec. IV.A) were previously only exercised
through CALLOC's own trainer; the defense subsystem applies the same lesson
machinery to any gradient-capable model, so the invariants are asserted here
against each of them:

* lesson 1 is 100 % clean (ø = 0, original fraction 1);
* the attacked and original fractions of every lesson sum to 1;
* ε is fixed at 0.1 across the whole curriculum;
* ø is monotone non-decreasing over the lessons.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.defenses import (
    Curriculum,
    CurriculumAdversarialDefense,
    DefenseError,
    LessonBuilder,
)
from repro.registry import LOCALIZERS

#: Cheap constructor params per gradient-capable registry name.
GRADIENT_CAPABLE = {
    "CALLOC": {
        "embed_dim": 16,
        "attention_dim": 8,
        "num_lessons": 2,
        "epochs_per_lesson": 1,
        "seed": 0,
    },
    "DNN": {"hidden_dims": (16,), "epochs": 2, "seed": 0},
    "CNN": {"channels": 4, "epochs": 2, "seed": 0},
    "ANVIL": {"embed_dim": 16, "num_heads": 2, "epochs": 2, "seed": 0},
    "AdvLoc": {"hidden_dims": (16,), "epochs": 2, "warmup_epochs": 1, "seed": 0},
}


@pytest.fixture(scope="module")
def fitted_models(tiny_campaign):
    """One fitted instance per gradient-capable localizer (shared, read-only)."""
    models = {}
    for name, params in GRADIENT_CAPABLE.items():
        models[name] = LOCALIZERS.create(name, **params).fit(tiny_campaign.train)
    return models


class TestCurriculumShape:
    def test_lesson_one_is_fully_clean(self):
        curriculum = Curriculum()
        first = curriculum[0]
        assert first.is_baseline
        assert first.phi_percent == 0.0
        assert first.original_fraction == 1.0

    def test_fractions_sum_to_one(self):
        for lesson in Curriculum():
            attacked_fraction = 1.0 - lesson.original_fraction
            assert 0.0 <= attacked_fraction <= 1.0
            assert attacked_fraction + lesson.original_fraction == pytest.approx(1.0)

    def test_epsilon_fixed_at_0_1(self):
        assert {lesson.epsilon for lesson in Curriculum()} == {0.1}

    def test_phi_monotone_over_lessons(self):
        phis = [lesson.phi_percent for lesson in Curriculum()]
        assert phis == sorted(phis)
        assert phis[-1] == 100.0

    def test_defense_curriculum_matches_calloc_default_shape(self):
        """The defense trains through the exact schedule CALLOC uses."""
        defense = CurriculumAdversarialDefense()
        lessons = defense.curriculum().lessons
        reference = Curriculum().lessons
        assert lessons == reference


class TestLessonBuilderPerModel:
    @pytest.mark.parametrize("name", sorted(GRADIENT_CAPABLE))
    def test_lesson_one_returns_untouched_copies(self, name, fitted_models, tiny_campaign):
        model = fitted_models[name]
        features = tiny_campaign.train.features
        labels = tiny_campaign.train.labels
        builder = LessonBuilder(seed=0)
        lesson_features, lesson_labels = builder.build(
            Curriculum()[0], features, labels, model
        )
        np.testing.assert_array_equal(lesson_features, features)
        np.testing.assert_array_equal(lesson_labels, labels)
        assert lesson_features is not features  # defensive copy

    @pytest.mark.parametrize("name", sorted(GRADIENT_CAPABLE))
    def test_attack_lesson_respects_fractions_and_epsilon(
        self, name, fitted_models, tiny_campaign
    ):
        model = fitted_models[name]
        features = tiny_campaign.train.features
        labels = tiny_campaign.train.labels
        lesson = Curriculum()[5]  # mid-curriculum: ø > 0, original < 1
        builder = LessonBuilder(seed=0)
        lesson_features, lesson_labels = builder.build(lesson, features, labels, model)

        np.testing.assert_array_equal(lesson_labels, labels)
        changed = (lesson_features != features).any(axis=1)
        expected_attacked = int(round((1.0 - lesson.original_fraction) * len(features)))
        # FGSM may leave a selected row untouched when its targeted gradients
        # vanish, so the changed count is bounded by — not equal to — the
        # lesson's attacked share.
        assert 1 <= changed.sum() <= expected_attacked
        # Unchanged rows are bit-identical originals; changed rows stay inside
        # the lesson's ε-ball and the valid feature box.
        deltas = np.abs(lesson_features - features)
        assert deltas[~changed].max(initial=0.0) == 0.0
        assert deltas.max() <= lesson.epsilon + 1e-12
        assert lesson_features.min() >= 0.0 and lesson_features.max() <= 1.0

    @pytest.mark.parametrize("name", sorted(GRADIENT_CAPABLE))
    def test_builder_is_deterministic_per_seed(self, name, fitted_models, tiny_campaign):
        model = fitted_models[name]
        features = tiny_campaign.train.features
        labels = tiny_campaign.train.labels
        lesson = Curriculum()[3]
        first, _ = LessonBuilder(seed=7).build(lesson, features, labels, model)
        second, _ = LessonBuilder(seed=7).build(lesson, features, labels, model)
        np.testing.assert_array_equal(first, second)
        third, _ = LessonBuilder(seed=8).build(lesson, features, labels, model)
        assert (first != third).any()


class TestCurriculumDefenseApplicability:
    def test_rejects_gradient_free_models(self, tiny_campaign):
        knn = LOCALIZERS.create("KNN", k=3)
        with pytest.raises(DefenseError, match="gradient-capable"):
            CurriculumAdversarialDefense().wrap_training(knn, tiny_campaign.train)

    @pytest.mark.parametrize("name", ["DNN", "CNN", "ANVIL", "AdvLoc"])
    def test_hardens_every_neural_baseline(self, name, tiny_campaign):
        params = dict(GRADIENT_CAPABLE[name])
        params["epochs"] = 4
        model = LOCALIZERS.create(name, **params)
        defense = CurriculumAdversarialDefense(num_lessons=3, epochs_per_lesson=1)
        fitted = defense.wrap_training(model, tiny_campaign.train)
        assert fitted is model
        predictions = fitted.predict(tiny_campaign.test_for("S7").features)
        assert predictions.shape == (len(tiny_campaign.test_for("S7")),)

    def test_calloc_native_curriculum_is_bit_identical(self, tiny_campaign):
        """CALLOC under the defense is the unchanged native curriculum path."""
        params = GRADIENT_CAPABLE["CALLOC"]
        undefended = LOCALIZERS.create("CALLOC", **params).fit(tiny_campaign.train)
        defended = CurriculumAdversarialDefense().wrap_training(
            LOCALIZERS.create("CALLOC", **params), tiny_campaign.train
        )
        test = tiny_campaign.test_for("S7").features
        np.testing.assert_array_equal(
            defended.predict(test), undefended.predict(test)
        )
        np.testing.assert_array_equal(
            defended.predict_proba(test), undefended.predict_proba(test)
        )
