"""Defense interface and declarative references: the fourth registry axis.

The paper's central contribution is a *defense* — curriculum adversarial
learning hardens a localizer against the FGSM/PGD/MIM/MITM attack grid — and
this package turns defenses into first-class pluggable components alongside
models, attacks and robustness scenarios, completing the experiment matrix
(model × attack × scenario × **defense**).

A defense may act at either (or both) of two points in a model's life:

* **training time** — :meth:`Defense.wrap_training` replaces the plain
  ``model.fit(dataset)`` call of a training work unit, hardening how the model
  is fitted (curriculum adversarial training, PGD adversarial training, noise
  augmentation).  Set ``hardens_training = True``.
* **inference time** — :meth:`Defense.guard` screens online fingerprints
  before they reach the model (the statistical adversarial-fingerprint
  detector).  Set ``guards_inference = True``; the guard is fitted once via
  :meth:`Defense.fit_guard` on an offline survey, travels with the published
  service artifact through ``guard_state_arrays``/``load_guard_state``, and is
  exercised per request by :class:`repro.serve.Gateway` with flagged/rejected
  counters on ``GET /metrics``.

Defenses are registered with ``@DEFENSES.register`` (the
:data:`repro.registry.DEFENSES` registry) and referenced declaratively
through :class:`DefenseSpec` — in :class:`repro.api.ExperimentSpec`
(``defenses=("curriculum",)``), on the CLI (``repro run --defense
curriculum``), and in the execution engine, where a defended training unit
is cached content-addressed under a key embedding the full defense spec
(in-process ≡ queue-drained ``jobs=N``, cold ≡ warm cache).

Adding a defense family::

    from repro.registry import DEFENSES
    from repro.defenses import Defense

    @DEFENSES.register("distillation", tags=("training",))
    class DistillationDefense(Defense):
        name = "distillation"
        hardens_training = True

        def wrap_training(self, model, dataset):
            ...
            return model
"""

from __future__ import annotations

import abc
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, Mapping, Sequence

import numpy as np

from ..data.fingerprint import FingerprintDataset
from ..interfaces import Localizer
from ..registry import DEFENSES, ComponentSpec

__all__ = [
    "DefenseError",
    "GuardRejectedError",
    "GuardReport",
    "Defense",
    "DefenseSpec",
    "NoDefense",
    "require_trainable",
    "override_epochs",
]


def require_trainable(model: Localizer, defense: str) -> None:
    """Assert ``model`` supports the generic defended-training protocol.

    The training-time defenses interleave hardened phases via the model's
    own gradients, a ``continue_training`` hook, and a mutable ``epochs``
    budget; anything else gets a clear error naming the missing capability
    (shared by every defense so the contract can only drift in one place).
    """
    if not (
        hasattr(model, "loss_gradient")
        and callable(getattr(model, "continue_training", None))
        and hasattr(model, "epochs")
    ):
        raise DefenseError(
            f"defense '{defense}' needs a gradient-capable localizer "
            "(loss_gradient + continue_training + an epochs budget); "
            f"'{getattr(model, 'name', type(model).__name__)}' does not qualify"
        )


@contextmanager
def override_epochs(model: Localizer, epochs: int) -> Iterator[None]:
    """Temporarily rebudget ``model.epochs`` (restored even on failure)."""
    original = model.epochs
    model.epochs = epochs
    try:
        yield
    finally:
        model.epochs = original


class DefenseError(TypeError):
    """A defense cannot be applied to the given model or request."""


class GuardRejectedError(RuntimeError):
    """An enforcing inference guard rejected a request.

    Raised by :meth:`repro.api.LocalizationService.localize` when the attached
    guard runs in ``action="reject"`` mode and flags at least one fingerprint;
    the serving layer maps it to HTTP 403 and counts the rejection on
    ``GET /metrics``.
    """

    def __init__(self, defense: str, flagged_indices: Sequence[int]) -> None:
        self.defense = str(defense)
        self.flagged_indices = tuple(int(i) for i in flagged_indices)
        super().__init__(
            f"guard '{self.defense}' rejected the request: "
            f"{len(self.flagged_indices)} fingerprint(s) flagged as adversarial "
            f"(rows {list(self.flagged_indices[:8])}"
            f"{'…' if len(self.flagged_indices) > 8 else ''})"
        )


@dataclass(frozen=True)
class GuardReport:
    """Outcome of screening one batch of fingerprints.

    ``features`` is the batch the model should actually see (guards may
    transform inputs; the detector passes them through unchanged), ``flagged``
    marks the rows the guard considers adversarial, and ``scores`` carries the
    per-row anomaly statistic behind the decision.
    """

    features: np.ndarray
    flagged: np.ndarray
    scores: np.ndarray

    @property
    def num_flagged(self) -> int:
        return int(np.count_nonzero(self.flagged))


class Defense(abc.ABC):
    """One pluggable hardening strategy around a localizer.

    Subclasses opt into the hooks they implement via the two class flags;
    the defaults make every unimplemented hook a well-defined no-op (plain
    ``fit``, pass-through guard), so a training-only defense never has to
    stub out inference machinery and vice versa.
    """

    #: Registry name (also used in deterministic seed derivation).
    name: str = "defense"
    #: True when :meth:`wrap_training` differs from a plain ``model.fit``.
    hardens_training: bool = False
    #: True when the defense screens online fingerprints via :meth:`guard`.
    guards_inference: bool = False

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)

    def config(self) -> Dict[str, Any]:
        """Constructor parameters (beyond ``seed``) needed to rebuild this instance.

        Subclasses with knobs must override; the dict feeds
        :meth:`spec`, which is how an attached guard's exact configuration —
        including security-relevant settings such as the detector's
        ``action="reject"`` — survives persistence round-trips.
        """
        return {}

    def spec(self) -> "DefenseSpec":
        """A :class:`DefenseSpec` that rebuilds this instance via ``build()``."""
        return DefenseSpec.create(self.name, params=self.config(), seed=self.seed)

    # -- training-time hook ---------------------------------------------
    def wrap_training(
        self, model: Localizer, dataset: FingerprintDataset
    ) -> Localizer:
        """Fit ``model`` on ``dataset`` under this defense (default: plain fit).

        Returns the fitted (possibly hardened) model; the execution engine
        routes every defended training unit through this hook instead of
        calling ``model.fit`` directly.
        """
        model.fit(dataset)
        return model

    # -- inference-time hooks -------------------------------------------
    @property
    def guard_is_fitted(self) -> bool:
        """Whether :meth:`guard` is ready to screen fingerprints."""
        return not self.guards_inference

    @property
    def rejects(self) -> bool:
        """True when flagged fingerprints should abort the request."""
        return False

    def fit_guard(self, dataset: FingerprintDataset) -> "Defense":
        """Calibrate the inference guard on an offline survey (no-op default)."""
        if self.guards_inference:
            raise NotImplementedError(
                f"defense '{self.name}' declares guards_inference but does not "
                "implement fit_guard"
            )
        return self

    def guard(self, features: np.ndarray) -> GuardReport:
        """Screen a batch of normalised fingerprints (pass-through default)."""
        features = np.asarray(features, dtype=np.float64)
        return GuardReport(
            features=features,
            flagged=np.zeros(features.shape[0], dtype=bool),
            scores=np.zeros(features.shape[0], dtype=np.float64),
        )

    # -- guard persistence (ModelStore / LocalizationService archives) ---
    def guard_state_arrays(self) -> Dict[str, np.ndarray]:
        """The fitted guard state as named arrays (empty for guard-less defenses)."""
        return {}

    def load_guard_state(self, arrays: Mapping[str, np.ndarray]) -> "Defense":
        """Restore guard state previously exported by :meth:`guard_state_arrays`."""
        return self

    def __repr__(self) -> str:
        return f"{type(self).__name__}(seed={self.seed})"


# ----------------------------------------------------------------------
# Declarative reference
# ----------------------------------------------------------------------
class DefenseSpec(ComponentSpec):
    """Serializable, hashable reference to a registered defense family.

    A :class:`~repro.registry.ComponentSpec` over the defense registry;
    :meth:`build` returns a :class:`Defense`.
    """

    registry = DEFENSES

    @property
    def hardens_training(self) -> bool:
        """Whether this family alters training (a class-level flag, no build)."""
        return bool(getattr(self.registry.get(self.name), "hardens_training", True))


# ----------------------------------------------------------------------
# The baseline row of every defense matrix
# ----------------------------------------------------------------------
@DEFENSES.register("none", tags=("baseline",), aliases=("undefended",))
class NoDefense(Defense):
    """No hardening at all: the undefended reference row of a defense matrix.

    :meth:`repro.api.ExperimentSpec.resolve_model_tasks` maps this family to
    a defense-less :class:`~repro.eval.engine.ModelTask`, so its training
    units share cache artifacts with plain undefended runs bit for bit.
    """

    name = "none"
