"""Curriculum adversarial training (Sec. IV.A), generalized beyond CALLOC.

The curriculum is a sequence of 10 lessons of increasing difficulty:

* lesson 1 is the baseline — 0 % attacked APs (ø = 0) and 100 % original
  (clean) fingerprints;
* lessons 2–10 progressively raise the fraction of attacked APs from ø = 10
  to ø = 100 while the share of untouched original data shrinks;
* throughout the curriculum the attack strength is kept at a small, fixed
  ε = 0.1 and the adversarial samples are crafted with FGSM only — resilience
  to stronger ε and to PGD/MIM at test time is an emergent property the
  evaluation (Figs. 4–5) checks.

:class:`Curriculum` only *describes* the lessons; :class:`LessonBuilder`
materialises a lesson into training data by attacking the clean fingerprints
with the model's own gradients (white-box self-attack).  Both originated in
``repro.core`` welded to the CALLOC trainer; they live here now so that
:class:`CurriculumAdversarialDefense` can walk *any* gradient-capable
localizer (DNN, CNN, ANVIL, AdvLoc, …) through the same lesson sequence.
CALLOC's trainer imports them from here, so its own training path — and
therefore its results — are unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, List, Optional, Tuple

import numpy as np

from ..attacks.base import GradientProvider, ThreatModel
from ..attacks.fgsm import FGSMAttack
from ..data.fingerprint import FingerprintDataset
from ..interfaces import Localizer
from ..registry import DEFENSES
from .base import Defense, override_epochs, require_trainable

__all__ = [
    "Lesson",
    "Curriculum",
    "LessonBuilder",
    "CurriculumAdversarialDefense",
]


@dataclass(frozen=True)
class Lesson:
    """One curriculum lesson.

    Attributes
    ----------
    index:
        1-based lesson number.
    phi_percent:
        Percentage of access points attacked in this lesson's adversarial data.
    epsilon:
        Perturbation magnitude used to craft the lesson (fixed to 0.1).
    original_fraction:
        Fraction of the lesson batch that stays clean (the rest is attacked).
    """

    index: int
    phi_percent: float
    epsilon: float
    original_fraction: float

    def with_phi(self, phi_percent: float) -> "Lesson":
        """Return a copy of the lesson with an adjusted ø (adaptive back-off)."""
        return replace(self, phi_percent=float(np.clip(phi_percent, 0.0, 100.0)))

    @property
    def is_baseline(self) -> bool:
        """True for the clean (ø = 0) lesson."""
        return self.phi_percent == 0.0 or self.original_fraction >= 1.0

    def describe(self) -> str:
        """Short human-readable description used in training logs."""
        return (
            f"lesson {self.index}: phi={self.phi_percent:.0f}%, eps={self.epsilon}, "
            f"original={self.original_fraction * 100:.0f}%"
        )


class Curriculum:
    """The ordered list of lessons the model is trained through."""

    def __init__(
        self,
        num_lessons: int = 10,
        epsilon: float = 0.1,
        max_phi: float = 100.0,
        start_phi: float = 10.0,
        min_original_fraction: float = 0.5,
    ) -> None:
        if num_lessons < 2:
            raise ValueError("a curriculum needs at least a baseline and one attack lesson")
        if not 0.0 < start_phi <= max_phi <= 100.0:
            raise ValueError("phi range must satisfy 0 < start_phi <= max_phi <= 100")
        if not 0.0 <= min_original_fraction <= 1.0:
            raise ValueError("min_original_fraction must be in [0, 1]")
        self.num_lessons = num_lessons
        self.epsilon = epsilon
        self.max_phi = max_phi
        self.start_phi = start_phi
        self.min_original_fraction = min_original_fraction
        self._lessons = self._build()

    def _build(self) -> List[Lesson]:
        lessons = [Lesson(index=1, phi_percent=0.0, epsilon=self.epsilon, original_fraction=1.0)]
        attack_lessons = self.num_lessons - 1
        phis = np.linspace(self.start_phi, self.max_phi, attack_lessons)
        start_fraction = max(0.8, self.min_original_fraction)
        fractions = np.linspace(start_fraction, self.min_original_fraction, attack_lessons)
        for offset, (phi, fraction) in enumerate(zip(phis, fractions), start=2):
            lessons.append(
                Lesson(
                    index=offset,
                    phi_percent=float(phi),
                    epsilon=self.epsilon,
                    original_fraction=float(fraction),
                )
            )
        return lessons

    # ------------------------------------------------------------------
    @property
    def lessons(self) -> List[Lesson]:
        """The lessons in training order."""
        return list(self._lessons)

    def __len__(self) -> int:
        return len(self._lessons)

    def __iter__(self) -> Iterator[Lesson]:
        return iter(self._lessons)

    def __getitem__(self, index: int) -> Lesson:
        return self._lessons[index]

    def describe(self) -> str:
        """Multi-line description of the full curriculum."""
        return "\n".join(lesson.describe() for lesson in self._lessons)


class LessonBuilder:
    """Materialises a lesson into (possibly adversarial) training data.

    The adversarial share of a lesson is crafted with FGSM against the current
    model (white-box self-attack), using the lesson's ε and ø.  A fresh subset
    of APs is drawn per lesson realisation, so over the curriculum the model
    sees many different compromised-AP patterns.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._realisation = 0

    def build(
        self,
        lesson: Lesson,
        features: np.ndarray,
        labels: np.ndarray,
        model: GradientProvider,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Return the lesson's training ``(features, labels)`` arrays."""
        features = np.asarray(features, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.int64)
        self._realisation += 1
        if lesson.is_baseline:
            return features.copy(), labels.copy()

        rng = np.random.default_rng(self.seed + self._realisation)
        num_samples = features.shape[0]
        num_adversarial = int(round((1.0 - lesson.original_fraction) * num_samples))
        num_adversarial = int(np.clip(num_adversarial, 1, num_samples))
        adversarial_rows = rng.choice(num_samples, size=num_adversarial, replace=False)

        threat = ThreatModel(
            epsilon=lesson.epsilon,
            phi_percent=lesson.phi_percent,
            seed=self.seed + 1000 * lesson.index + self._realisation,
        )
        attack = FGSMAttack(threat)
        adversarial = attack.perturb(features[adversarial_rows], labels[adversarial_rows], model)

        lesson_features = features.copy()
        lesson_features[adversarial_rows] = adversarial
        return lesson_features, labels.copy()


# ----------------------------------------------------------------------
# The defense: curriculum training for any gradient-capable localizer
# ----------------------------------------------------------------------
@DEFENSES.register(
    "curriculum", tags=("training", "adversarial"), aliases=("curriculum-adversarial",)
)
class CurriculumAdversarialDefense(Defense):
    """Curriculum adversarial training generalized from CALLOC (Sec. IV.A).

    The hardened model is walked through the lesson sequence exactly as the
    CALLOC trainer walks its attention model: lesson 1 trains on clean data
    only, each following lesson mixes FGSM self-attacked fingerprints at the
    lesson's (ε, ø) into the batch and continues training on the mix.

    Two model families are supported:

    * **CALLOC-family models** (anything exposing a ``use_curriculum``
      switch): curriculum training *is* their native fit path, so the defense
      enables the switch and delegates to ``model.fit`` — results for a
      default-configured CALLOC are bit-identical to the undefended path.
    * **Generic gradient-capable localizers** (``loss_gradient`` +
      ``continue_training`` + an ``epochs`` budget, i.e. every
      :class:`~repro.baselines.neural.NeuralNetworkLocalizer`): lesson 1 is
      the model's own full ``fit`` on clean data (a well-trained model is
      what makes the white-box self-attack gradients meaningful), then each
      adversarial lesson continues training on :class:`LessonBuilder` output
      for ``epochs_per_lesson`` epochs.

    Parameters
    ----------
    num_lessons / epsilon / max_phi / start_phi / min_original_fraction:
        Curriculum shape (defaults reproduce the paper's 10-lesson, ε = 0.1
        schedule).
    epochs_per_lesson:
        Epochs spent on each *adversarial* lesson of the generic path;
        defaults to a fifth of the model's own clean ``epochs`` budget (on
        the quick profile: 40-epoch DNN → 8 epochs per lesson, which beats
        the undefended twin on both clean and attacked error).
    """

    name = "curriculum"
    hardens_training = True

    def __init__(
        self,
        seed: int = 0,
        num_lessons: int = 10,
        epsilon: float = 0.1,
        max_phi: float = 100.0,
        start_phi: float = 10.0,
        min_original_fraction: float = 0.5,
        epochs_per_lesson: Optional[int] = None,
    ) -> None:
        super().__init__(seed)
        if epochs_per_lesson is not None and epochs_per_lesson <= 0:
            raise ValueError("epochs_per_lesson must be positive")
        self.num_lessons = int(num_lessons)
        self.epsilon = float(epsilon)
        self.max_phi = float(max_phi)
        self.start_phi = float(start_phi)
        self.min_original_fraction = float(min_original_fraction)
        self.epochs_per_lesson = epochs_per_lesson

    def config(self) -> dict:
        return {
            "num_lessons": self.num_lessons,
            "epsilon": self.epsilon,
            "max_phi": self.max_phi,
            "start_phi": self.start_phi,
            "min_original_fraction": self.min_original_fraction,
            "epochs_per_lesson": self.epochs_per_lesson,
        }

    def curriculum(self) -> Curriculum:
        """The lesson sequence this defense trains through."""
        return Curriculum(
            num_lessons=self.num_lessons,
            epsilon=self.epsilon,
            max_phi=self.max_phi,
            start_phi=self.start_phi,
            min_original_fraction=self.min_original_fraction,
        )

    def wrap_training(
        self, model: Localizer, dataset: FingerprintDataset
    ) -> Localizer:
        if hasattr(model, "use_curriculum"):
            # CALLOC-family: curriculum training is the model's native fit
            # path.  Enable the switch (a no-op for the default config) and
            # let the model run its own trainer, adaptive controller included.
            model.use_curriculum = True
            model.fit(dataset)
            return model
        require_trainable(model, self.name)
        curriculum = self.curriculum()
        builder = LessonBuilder(seed=self.seed)
        per_lesson = self.epochs_per_lesson or max(1, int(round(model.epochs / 5)))
        features = dataset.features
        labels = dataset.labels
        # Lesson 1 (clean) is the model's own full fit — it builds the
        # network and gives the self-attack meaningful gradients.
        model.fit(dataset)
        with override_epochs(model, per_lesson):
            for lesson in curriculum.lessons[1:]:
                lesson_features, lesson_labels = builder.build(
                    lesson, features, labels, model
                )
                model.continue_training(lesson_features, lesson_labels)
        return model
