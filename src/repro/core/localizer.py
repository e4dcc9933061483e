"""High-level CALLOC localizer: the public entry point of the framework.

:class:`CALLOC` wires together the pieces of Sec. IV — hyperspace embeddings,
scaled dot-product attention model, FGSM-based curriculum and the adaptive
controller — behind the same :class:`~repro.interfaces.Localizer` interface
used by every baseline, so it can be dropped into the shared evaluation
harness and benchmark suite.

Two ablation switches mirror the paper's studies:

* ``use_curriculum=False`` reproduces the "NC" (no curriculum) variant of
  Fig. 5: the model is trained only on clean data (lesson 1 repeated).
* ``adaptive=False`` disables the Sec. IV.D loss-monitoring back-off,
  training through the static lesson sequence.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..data.fingerprint import FingerprintDataset
from ..defenses.curriculum import Curriculum
from ..interfaces import DifferentiableLocalizer
from ..nn import CrossEntropyLoss, Tensor, no_grad
from ..registry import register_localizer
from . import kernels
from .adaptive import AdaptiveConfig
from .model import CALLOCModel
from .trainer import CALLOCTrainer, TrainerConfig, TrainingReport, input_loss_gradient

__all__ = ["CALLOC"]


@register_localizer("CALLOC", tags=("framework",))
class CALLOC(DifferentiableLocalizer):
    """Curriculum Adversarial Learning for secure and robust indoor localization.

    Parameters
    ----------
    embed_dim / attention_dim:
        Model dimensions (128 / 64 by default, per Sec. V.A's lightweight
        budget).
    dropout_rate / noise_std:
        Augmentation strengths of the original-data hyperspace (0.2 / 0.32).
    num_lessons / curriculum_epsilon:
        Curriculum shape: number of lessons (10) and the fixed training attack
        strength (ε = 0.1, FGSM only).
    use_curriculum:
        When ``False`` the model trains on clean data only (the paper's "NC"
        ablation).
    adaptive:
        Enables the adaptive controller of Sec. IV.D.
    epochs_per_lesson / lr / batch_size / seed:
        Optimisation hyper-parameters.
    reference_mode:
        ``"per_rp_mean"`` (default) stores one averaged clean fingerprint per
        reference point as the attention database; ``"all"`` stores every
        training scan.
    """

    name = "CALLOC"

    def __init__(
        self,
        embed_dim: int = 128,
        attention_dim: int = 64,
        dropout_rate: float = 0.2,
        noise_std: float = 0.32,
        num_lessons: int = 10,
        curriculum_epsilon: float = 0.1,
        use_curriculum: bool = True,
        adaptive: bool = True,
        epochs_per_lesson: int = 10,
        lr: float = 2e-3,
        batch_size: int = 32,
        reconstruction_weight: float = 0.05,
        augment_noise_std: float = 0.05,
        augment_dropout: float = 0.1,
        reference_mode: str = "per_rp_mean",
        seed: int = 0,
    ) -> None:
        if reference_mode not in ("per_rp_mean", "all"):
            raise ValueError("reference_mode must be 'per_rp_mean' or 'all'")
        self.embed_dim = embed_dim
        self.attention_dim = attention_dim
        self.dropout_rate = dropout_rate
        self.noise_std = noise_std
        self.num_lessons = num_lessons
        self.curriculum_epsilon = curriculum_epsilon
        self.use_curriculum = use_curriculum
        self.adaptive = adaptive
        self.epochs_per_lesson = epochs_per_lesson
        self.lr = lr
        self.batch_size = batch_size
        self.reconstruction_weight = reconstruction_weight
        self.augment_noise_std = augment_noise_std
        self.augment_dropout = augment_dropout
        self.reference_mode = reference_mode
        self.seed = seed

        self.model: Optional[CALLOCModel] = None
        self.training_report: Optional[TrainingReport] = None
        self._loss = CrossEntropyLoss()

    # ------------------------------------------------------------------
    def _build_reference(self, dataset: FingerprintDataset):
        """Assemble the attention database from the offline fingerprints."""
        features = dataset.features
        labels = dataset.labels
        positions = dataset.rp_positions
        if self.reference_mode == "all":
            return features, positions[labels], labels.copy()
        num_classes = dataset.num_classes
        reference_features = np.zeros((num_classes, dataset.num_aps))
        for class_index in range(num_classes):
            mask = labels == class_index
            if mask.any():
                reference_features[class_index] = features[mask].mean(axis=0)
        return reference_features, positions, np.arange(num_classes)

    def _build_curriculum(self) -> Curriculum:
        if self.use_curriculum:
            return Curriculum(num_lessons=self.num_lessons, epsilon=self.curriculum_epsilon)
        # "NC" ablation: the baseline (clean) lesson repeated for the same
        # total epoch budget, i.e. training without adversarial lessons.
        return Curriculum(
            num_lessons=self.num_lessons,
            epsilon=0.0,
            start_phi=1e-9,
            min_original_fraction=1.0,
        )

    # ------------------------------------------------------------------
    def fit(self, dataset: FingerprintDataset) -> "CALLOC":
        rng = np.random.default_rng(self.seed)
        reference_features, reference_positions, reference_labels = self._build_reference(dataset)
        self.model = CALLOCModel(
            num_aps=dataset.num_aps,
            num_classes=dataset.num_classes,
            reference_features=reference_features,
            reference_positions=reference_positions,
            reference_labels=reference_labels,
            embed_dim=self.embed_dim,
            attention_dim=self.attention_dim,
            dropout_rate=self.dropout_rate,
            noise_std=self.noise_std,
            rng=rng,
        )
        curriculum = self._build_curriculum()
        # The lesson-carried augmentation is part of the curriculum; the "NC"
        # ablation therefore trains on raw clean fingerprints only.
        augment_noise = self.augment_noise_std if self.use_curriculum else 0.0
        augment_dropout = self.augment_dropout if self.use_curriculum else 0.0
        trainer_config = TrainerConfig(
            epochs_per_lesson=self.epochs_per_lesson,
            lr=self.lr,
            batch_size=self.batch_size,
            reconstruction_weight=self.reconstruction_weight,
            adaptive=self.adaptive,
            augment_noise_std=augment_noise,
            augment_dropout=augment_dropout,
            seed=self.seed,
        )
        trainer = CALLOCTrainer(self.model, curriculum=curriculum, config=trainer_config)
        self.training_report = trainer.train(dataset.features, dataset.labels)
        return self

    # ------------------------------------------------------------------
    def _eval_logits(self, features: np.ndarray) -> np.ndarray:
        """Evaluation-mode logits, graph-free whenever the model allows."""
        if self.model is None:
            raise RuntimeError("CALLOC must be fitted before prediction")
        self.model.eval()
        features = np.asarray(features, dtype=np.float64)
        if kernels.fusable(self.model, features):
            return kernels.logits(self.model, features)
        with no_grad():
            return self.model(Tensor(features)).data

    def predict(self, features: np.ndarray) -> np.ndarray:
        return self._eval_logits(features).argmax(axis=1)

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Softmax probabilities over reference-point classes."""
        logits = self._eval_logits(features)
        shifted = logits - logits.max(axis=1, keepdims=True)
        exps = np.exp(shifted)
        return exps / exps.sum(axis=1, keepdims=True)

    def loss_gradient(self, features: np.ndarray, labels: np.ndarray) -> np.ndarray:
        if self.model is None:
            raise RuntimeError("CALLOC must be fitted before computing gradients")
        return input_loss_gradient(self.model, self._loss, features, labels)

    # ------------------------------------------------------------------
    def state_arrays(self) -> Dict[str, np.ndarray]:
        """Fitted state as named arrays: weights plus the attention database.

        The attention database (reference fingerprints, positions and labels)
        is a detached constant of :class:`CALLOCModel`, not a trainable
        parameter, so it is exported alongside the ``state_dict`` weights.
        Used by :meth:`repro.api.LocalizationService.save`.
        """
        if self.model is None:
            raise RuntimeError("CALLOC must be fitted before exporting state")
        arrays = {
            f"weights/{name}": value for name, value in self.model.state_dict().items()
        }
        arrays["reference/features"] = self.model._reference_features
        arrays["reference/positions"] = self.model._reference_positions
        arrays["reference/labels"] = self.model._reference_labels
        arrays["dims"] = np.array(
            [self.model.num_aps, self.model.num_classes], dtype=np.int64
        )
        return arrays

    def load_state_arrays(self, arrays: Dict[str, np.ndarray]) -> "CALLOC":
        """Rebuild the fitted model from :meth:`state_arrays` output.

        The architecture hyper-parameters (``embed_dim`` etc.) come from this
        instance's constructor arguments, so they must match the ones the
        state was exported with.
        """
        num_aps, num_classes = (int(v) for v in np.asarray(arrays["dims"]).ravel())
        self.model = CALLOCModel(
            num_aps=num_aps,
            num_classes=num_classes,
            reference_features=np.asarray(arrays["reference/features"]),
            reference_positions=np.asarray(arrays["reference/positions"]),
            reference_labels=np.asarray(arrays["reference/labels"]),
            embed_dim=self.embed_dim,
            attention_dim=self.attention_dim,
            dropout_rate=self.dropout_rate,
            noise_std=self.noise_std,
            rng=np.random.default_rng(self.seed),
        )
        prefix = "weights/"
        weights = {
            name[len(prefix):]: value
            for name, value in arrays.items()
            if name.startswith(prefix)
        }
        self.model.load_state_dict(weights)
        self.model.eval()
        return self

    # ------------------------------------------------------------------
    def parameter_report(self) -> Dict[str, int]:
        """Trainable-parameter breakdown of the fitted model (Sec. V.A)."""
        if self.model is None:
            raise RuntimeError("CALLOC must be fitted before reporting parameters")
        return self.model.parameter_report()
