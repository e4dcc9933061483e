"""Curriculum-adversarial training loop for the CALLOC model (Sec. IV).

The trainer walks the model through the curriculum lesson by lesson.  For
every lesson it:

1. materialises the lesson data (FGSM self-attack at the lesson's ε/ø, mixed
   with clean data) via :class:`~repro.defenses.curriculum.LessonBuilder`;
2. trains for up to ``epochs_per_lesson`` epochs of mini-batch Adam on the
   classification loss (plus a small embedding reconstruction term);
3. reports each epoch loss to the
   :class:`~repro.core.adaptive.AdaptiveCurriculumController`, which may
   request a best-weight revert plus ø back-off (rebuilding the lesson data),
   or advance to the next lesson.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..defenses.curriculum import Curriculum, Lesson, LessonBuilder
from ..nn import Adam, CrossEntropyLoss, Tensor
from ..nn.fastpath import ce_target_matrix
from . import kernels
from .adaptive import AdaptiveConfig, AdaptiveCurriculumController, LessonAction
from .model import CALLOCModel

__all__ = [
    "TrainerConfig",
    "LessonRecord",
    "TrainingReport",
    "CALLOCTrainer",
    "input_loss_gradient",
]


@dataclass(frozen=True)
class TrainerConfig:
    """Hyper-parameters of the curriculum training loop."""

    epochs_per_lesson: int = 10
    lr: float = 2e-3
    batch_size: int = 32
    #: Weight of the hyperspace reconstruction (MSE) objective.
    reconstruction_weight: float = 0.05
    #: Train with the adaptive controller (Sec. IV.D); pure sequential otherwise.
    adaptive: bool = True
    #: Standard deviation of the Gaussian noise added to lesson inputs each
    #: epoch (environmental-variation augmentation carried by the lessons).
    augment_noise_std: float = 0.05
    #: Probability of zeroing an AP reading in the lesson inputs each epoch
    #: (models missed beacons / device detection differences).
    augment_dropout: float = 0.1
    seed: int = 0


@dataclass
class LessonRecord:
    """What happened while training one lesson."""

    lesson: Lesson
    losses: List[float] = field(default_factory=list)
    backoffs: int = 0
    final_phi: float = 0.0


@dataclass
class TrainingReport:
    """Complete training history returned by :class:`CALLOCTrainer.train`."""

    lessons: List[LessonRecord] = field(default_factory=list)

    @property
    def total_epochs(self) -> int:
        return sum(len(record.losses) for record in self.lessons)

    @property
    def total_backoffs(self) -> int:
        return sum(record.backoffs for record in self.lessons)

    def loss_curve(self) -> List[float]:
        """Concatenated epoch losses across all lessons."""
        curve: List[float] = []
        for record in self.lessons:
            curve.extend(record.losses)
        return curve

    def summary(self) -> str:
        """Readable per-lesson summary."""
        lines = []
        for record in self.lessons:
            final = record.losses[-1] if record.losses else float("nan")
            lines.append(
                f"lesson {record.lesson.index:2d}: phi {record.lesson.phi_percent:5.1f}% -> "
                f"{record.final_phi:5.1f}%, epochs {len(record.losses):2d}, "
                f"backoffs {record.backoffs}, final loss {final:.4f}"
            )
        return "\n".join(lines)


class CALLOCTrainer:
    """Runs curriculum-adversarial training of a :class:`CALLOCModel`."""

    def __init__(
        self,
        model: CALLOCModel,
        curriculum: Optional[Curriculum] = None,
        config: Optional[TrainerConfig] = None,
        adaptive_config: Optional[AdaptiveConfig] = None,
    ) -> None:
        self.model = model
        self.curriculum = curriculum or Curriculum()
        self.config = config or TrainerConfig()
        self.controller = AdaptiveCurriculumController(adaptive_config)
        self.lesson_builder = LessonBuilder(seed=self.config.seed)
        self._loss = CrossEntropyLoss()
        self._rng = np.random.default_rng(self.config.seed)

    # ------------------------------------------------------------------
    def train(self, features: np.ndarray, labels: np.ndarray) -> TrainingReport:
        """Train through the full curriculum on the offline database."""
        features = np.asarray(features, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.int64)
        optimizer = Adam(self.model.parameters(), lr=self.config.lr)
        report = TrainingReport()

        for lesson in self.curriculum:
            record = self._train_lesson(lesson, features, labels, optimizer)
            report.lessons.append(record)
        self.model.eval()
        return report

    # ------------------------------------------------------------------
    def _train_lesson(
        self,
        lesson: Lesson,
        features: np.ndarray,
        labels: np.ndarray,
        optimizer: Adam,
    ) -> LessonRecord:
        config = self.config
        record = LessonRecord(lesson=lesson, final_phi=lesson.phi_percent)
        active_lesson = lesson
        self.controller.start_lesson(lesson)
        lesson_features, lesson_labels = self.lesson_builder.build(
            active_lesson, features, labels, self._gradient_view()
        )

        epoch = 0
        while epoch < config.epochs_per_lesson:
            loss_value = self._train_epoch(lesson_features, lesson_labels, optimizer)
            record.losses.append(loss_value)
            epoch += 1
            if not config.adaptive:
                continue
            action = self.controller.observe(
                active_lesson, epoch, loss_value, self.model.state_dict()
            )
            if action is LessonAction.CONTINUE:
                continue
            if action is LessonAction.ADVANCE:
                break
            # BACKOFF: revert to best weights and ease the lesson difficulty.
            if self.controller.best_weights is not None:
                self.model.load_state_dict(self.controller.best_weights)
            active_lesson = self.controller.adjusted_lesson(active_lesson)
            record.backoffs += 1
            record.final_phi = active_lesson.phi_percent
            lesson_features, lesson_labels = self.lesson_builder.build(
                active_lesson, features, labels, self._gradient_view()
            )
        record.final_phi = active_lesson.phi_percent
        # Keep the lesson's best weights (early-stopping behaviour).
        if config.adaptive and self.controller.best_weights is not None:
            self.model.load_state_dict(self.controller.best_weights)
        return record

    def _train_epoch(
        self, features: np.ndarray, labels: np.ndarray, optimizer: Adam
    ) -> float:
        config = self.config
        features = self._augment(features)
        num_samples = features.shape[0]
        batch_size = min(config.batch_size, num_samples)
        order = self._rng.permutation(num_samples)
        self.model.train()
        fused = _fused(self.model, self._loss)
        if fused:
            # Row slices of the one-hot targets equal the per-batch build.
            targets = ce_target_matrix(
                labels, self.model.num_classes, self._loss.label_smoothing
            )
        batch_losses: List[float] = []
        for start in range(0, num_samples, batch_size):
            batch = order[start : start + batch_size]
            optimizer.zero_grad()
            if fused:
                batch_loss = kernels.train_step(
                    self.model, features[batch], targets[batch], config.reconstruction_weight
                )
            else:
                inputs = Tensor(features[batch])
                logits = self.model(inputs)
                loss = self._loss(logits, labels[batch])
                if config.reconstruction_weight > 0:
                    reconstruction = self.model.embedding_reconstruction_loss(inputs)
                    loss = loss + reconstruction * config.reconstruction_weight
                loss.backward()
                batch_loss = loss.item()
            optimizer.step()
            batch_losses.append(batch_loss)
        return float(np.mean(batch_losses))

    def _augment(self, features: np.ndarray) -> np.ndarray:
        """Per-epoch environmental-variation augmentation of the lesson inputs.

        Mirrors the dropout + Gaussian-noise augmentation the paper applies to
        the original-data hyperspace, here applied to the lesson fingerprints
        so every epoch sees a slightly different realisation of environmental
        and device noise.
        """
        config = self.config
        if config.augment_noise_std <= 0 and config.augment_dropout <= 0:
            return features
        augmented = features.copy()
        if config.augment_noise_std > 0:
            augmented = augmented + self._rng.normal(
                0.0, config.augment_noise_std, size=augmented.shape
            )
            augmented = np.clip(augmented, 0.0, 1.0)
        if config.augment_dropout > 0:
            dropped = self._rng.random(augmented.shape) < config.augment_dropout
            augmented = np.where(dropped, 0.0, augmented)
        return augmented

    # ------------------------------------------------------------------
    def _gradient_view(self):
        """A GradientProvider view of the model for crafting lesson data."""
        return _ModelGradientView(self.model, self._loss)


def _fused(
    model: CALLOCModel, loss: CrossEntropyLoss, features: Optional[np.ndarray] = None
) -> bool:
    """Whether the graph-free kernels replicate ``model`` + ``loss`` exactly."""
    return type(loss) is CrossEntropyLoss and kernels.fusable(model, features)


def input_loss_gradient(
    model: CALLOCModel, loss: CrossEntropyLoss, features: np.ndarray, labels: np.ndarray
) -> np.ndarray:
    """Eval-mode gradient of ``loss`` w.r.t. ``features`` (leaves ``model`` in eval)."""
    model.eval()
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if _fused(model, loss, features):
        return kernels.input_gradient(model, features, labels, loss.label_smoothing)
    inputs = Tensor(features, requires_grad=True)
    loss(model(inputs), labels).backward()
    return inputs.grad.copy()


class _ModelGradientView:
    """Adapter exposing the CALLOC model's input gradients to the attacks."""

    def __init__(self, model: CALLOCModel, loss: CrossEntropyLoss) -> None:
        self._model = model
        self._loss = loss

    def loss_gradient(self, features: np.ndarray, labels: np.ndarray) -> np.ndarray:
        gradient = input_loss_gradient(self._model, self._loss, features, labels)
        self._model.train()
        return gradient
