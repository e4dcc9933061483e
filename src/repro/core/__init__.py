"""``repro.core`` — the CALLOC framework (the paper's primary contribution).

Contains the hyperspace embedding networks, the scaled dot-product attention
localization model, the FGSM-based curriculum, the adaptive curriculum
controller, the curriculum trainer, and the high-level :class:`CALLOC`
localizer.
"""

from ..defenses.curriculum import Curriculum, Lesson, LessonBuilder
from .adaptive import AdaptiveConfig, AdaptiveCurriculumController, LessonAction
from .embedding import CurriculumEmbedding, OriginalEmbedding
from .localizer import CALLOC
from .model import CALLOCModel
from .trainer import CALLOCTrainer, LessonRecord, TrainerConfig, TrainingReport

__all__ = [
    "CALLOC",
    "CALLOCModel",
    "CALLOCTrainer",
    "TrainerConfig",
    "TrainingReport",
    "LessonRecord",
    "Curriculum",
    "Lesson",
    "LessonBuilder",
    "AdaptiveConfig",
    "AdaptiveCurriculumController",
    "LessonAction",
    "CurriculumEmbedding",
    "OriginalEmbedding",
]
