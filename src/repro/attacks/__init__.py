"""``repro.attacks`` — white-box adversarial attacks on indoor localization.

Implements the three crafting methods the paper evaluates (FGSM, PGD, MIM),
the channel-side MITM wrappers (signal manipulation and spoofing), the
ø-targeted-AP threat model, and surrogate gradients for non-differentiable
victims.
"""

from .base import Attack, GradientProvider, ThreatModel, no_attack, select_target_aps
from .fgsm import FGSMAttack
from .mim import MIMAttack
from .mitm import (
    SignalManipulationAttack,
    SignalSpoofingAttack,
    attack_dataset,
    replay_survey,
)
from .pgd import PGDAttack
from .surrogate import SurrogateGradientModel

__all__ = [
    "Attack",
    "GradientProvider",
    "ThreatModel",
    "no_attack",
    "select_target_aps",
    "FGSMAttack",
    "PGDAttack",
    "MIMAttack",
    "SignalManipulationAttack",
    "SignalSpoofingAttack",
    "attack_dataset",
    "replay_survey",
    "SurrogateGradientModel",
]
