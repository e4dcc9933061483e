"""Adaptive curriculum controller (Sec. IV.D).

During every lesson the trainer reports the epoch loss of the final fully
connected layer to this controller.  The controller implements the paper's
adaptive behaviour:

* **divergence detection** — a sustained increase in loss is treated as the
  model struggling with the current lesson's difficulty (driven by ø);
* **best-weight revert** — on divergence the model is restored to its
  best-performing weights (early-stopping style);
* **curriculum back-off** — the current lesson's ø is reduced in steps of two
  percentage points and the lesson data is regenerated, easing difficulty;
* **advancement** — once the loss improves again (or the lesson's epoch
  budget is exhausted without divergence) the curriculum advances to the next
  lesson.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..defenses.curriculum import Lesson

__all__ = ["LessonAction", "AdaptiveConfig", "AdaptiveCurriculumController"]


class LessonAction(enum.Enum):
    """Decision returned to the trainer after each epoch."""

    #: Keep training on the current lesson data.
    CONTINUE = "continue"
    #: Revert to best weights, reduce ø and rebuild the lesson data.
    BACKOFF = "backoff"
    #: Lesson finished; move on to the next one.
    ADVANCE = "advance"


@dataclass(frozen=True)
class AdaptiveConfig:
    """Tunables of the adaptive controller."""

    #: Number of consecutive loss increases tolerated before backing off.
    patience: int = 2
    #: Relative loss increase treated as a divergence signal.
    divergence_tolerance: float = 1e-3
    #: Reduction applied to ø on each back-off (percentage points; paper: 2).
    phi_backoff_step: float = 2.0
    #: Maximum number of back-offs per lesson before force-advancing.
    max_backoffs_per_lesson: int = 5


@dataclass
class _LessonState:
    """Per-lesson bookkeeping."""

    best_loss: float = np.inf
    best_weights: Optional[Dict[str, np.ndarray]] = None
    increases: int = 0
    backoffs: int = 0
    losses: List[float] = field(default_factory=list)


class AdaptiveCurriculumController:
    """Loss monitor driving early stopping and curriculum back-off."""

    def __init__(self, config: Optional[AdaptiveConfig] = None) -> None:
        self.config = config or AdaptiveConfig()
        self._state = _LessonState()
        self.history: List[Dict[str, float]] = []

    # ------------------------------------------------------------------
    def start_lesson(self, lesson: Lesson) -> None:
        """Reset per-lesson state when a new lesson begins."""
        self._state = _LessonState()
        self._current_lesson = lesson

    def observe(
        self, lesson: Lesson, epoch: int, loss: float, weights: Dict[str, np.ndarray]
    ) -> LessonAction:
        """Report an epoch loss; returns the action the trainer must take.

        Parameters
        ----------
        lesson:
            The lesson currently being trained (its ø may have been adjusted).
        epoch:
            Epoch index within the lesson.
        loss:
            Mean classification loss of the final fully connected layer.
        weights:
            A snapshot of the model weights *after* this epoch (state dict).
        """
        state = self._state
        state.losses.append(float(loss))
        self.history.append(
            {
                "lesson": float(lesson.index),
                "phi": float(lesson.phi_percent),
                "epoch": float(epoch),
                "loss": float(loss),
            }
        )
        if loss < state.best_loss * (1.0 + self.config.divergence_tolerance) and loss < state.best_loss:
            state.best_loss = float(loss)
            state.best_weights = {name: value.copy() for name, value in weights.items()}
            state.increases = 0
            return LessonAction.CONTINUE

        if loss > state.best_loss * (1.0 + self.config.divergence_tolerance):
            state.increases += 1
        if state.increases >= self.config.patience:
            state.increases = 0
            if state.backoffs >= self.config.max_backoffs_per_lesson:
                return LessonAction.ADVANCE
            state.backoffs += 1
            return LessonAction.BACKOFF
        return LessonAction.CONTINUE

    # ------------------------------------------------------------------
    def adjusted_lesson(self, lesson: Lesson) -> Lesson:
        """The eased lesson used after a back-off (ø reduced by the step)."""
        new_phi = max(0.0, lesson.phi_percent - self.config.phi_backoff_step)
        return lesson.with_phi(new_phi)

    @property
    def best_weights(self) -> Optional[Dict[str, np.ndarray]]:
        """Best weights observed in the current lesson (for the revert step)."""
        return self._state.best_weights

    @property
    def best_loss(self) -> float:
        """Best loss observed in the current lesson."""
        return self._state.best_loss

    @property
    def backoffs_in_lesson(self) -> int:
        """Number of back-offs performed in the current lesson so far."""
        return self._state.backoffs

    def loss_curve(self) -> List[float]:
        """All observed losses across lessons, in order."""
        return [entry["loss"] for entry in self.history]
