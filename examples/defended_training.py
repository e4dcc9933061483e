#!/usr/bin/env python3
"""Defended-training quickstart: harden a DNN, publish it, serve it guarded.

The defense subsystem (``repro.defenses``) completes the experiment matrix —
model × attack × scenario × **defense** — and this example walks its full
production path:

1. train a DNN localizer under the paper's *curriculum adversarial training*
   (extracted from CALLOC and generalized to any gradient-capable model) and
   compare its robustness against the undefended twin;
2. attach the statistical *adversarial-fingerprint detector* as an inference
   guard, calibrated on the offline survey;
3. publish the hardened service to a versioned
   :class:`~repro.serve.ModelStore` — defense provenance lands in the
   manifest, the guard travels inside the artifact;
4. serve it and watch the guard flag adversarial fingerprints on
   ``GET /metrics``.

The same flow runs from the command line as::

    repro run --models DNN --defense none curriculum
    repro store publish --building "Building 1" --model DNN --defense detector
    repro serve --port 8080

Run with:  python examples/defended_training.py
"""

from __future__ import annotations

import tempfile

import numpy as np

from repro import LocalizationService, ModelStore
from repro.api import PROFILES
from repro.attacks import FGSMAttack, ThreatModel
from repro.defenses import CurriculumAdversarialDefense, DefenseSpec
from repro.eval.engine import simulate_campaign
from repro.registry import LOCALIZERS


def main() -> None:
    # ------------------------------------------------------------------
    # Offline phase: the quick-profile campaign for Building 1.
    # ------------------------------------------------------------------
    config = PROFILES["quick"]()
    campaign, _ = simulate_campaign("Building 1", config, None)
    test = campaign.test_for("OP3")

    # ------------------------------------------------------------------
    # 1. Harden a DNN with curriculum adversarial training.  The defense
    #    walks any gradient-capable localizer (DNN/CNN/ANVIL/AdvLoc) through
    #    the same 10-lesson FGSM self-attack schedule CALLOC trains with.
    # ------------------------------------------------------------------
    undefended = LOCALIZERS.create("DNN", epochs=40, seed=0).fit(campaign.train)
    defended = CurriculumAdversarialDefense().wrap_training(
        LOCALIZERS.create("DNN", epochs=40, seed=0), campaign.train
    )

    attack = FGSMAttack(ThreatModel(epsilon=0.3, phi_percent=50.0, seed=11))
    for name, model in (("undefended", undefended), ("curriculum", defended)):
        clean = model.error_summary(test)
        adversarial = attack.perturb(test.features, test.labels, model)
        from repro.data.fingerprint import denormalize_rss

        attacked = model.error_summary(test.with_rss(denormalize_rss(adversarial)))
        print(
            f"DNN [{name:>10}]  clean {clean.mean:5.2f} m   "
            f"FGSM(0.3, 50%) {attacked.mean:5.2f} m"
        )

    # ------------------------------------------------------------------
    # 2. Wrap the hardened model in a service and attach the online guard.
    # ------------------------------------------------------------------
    service = LocalizationService("DNN", params={"epochs": 40, "seed": 0})
    service.localizer = defended
    service._rp_positions = np.asarray(campaign.train.rp_positions, dtype=np.float64)
    service._num_aps = int(campaign.train.num_aps)
    service.defense_name = "curriculum"
    service.attach_guard(DefenseSpec.create("detector"), dataset=campaign.train)

    # ------------------------------------------------------------------
    # 3. Publish: provenance in the manifest, guard inside the artifact.
    # ------------------------------------------------------------------
    store = ModelStore(tempfile.mkdtemp(prefix="repro-store-"))
    version = store.publish(service, "dnn-hardened", tags=("prod",))
    print(f"\npublished {version.ref} (defense: {version.defense})")

    restored = store.resolve("dnn-hardened@prod")
    assert restored.guard is not None, "guard must travel with the artifact"

    # ------------------------------------------------------------------
    # 4. The guard in action: clean queries pass, crafted ones get flagged.
    # ------------------------------------------------------------------
    clean_result = restored.localize(test.features)
    adversarial = FGSMAttack(
        ThreatModel(epsilon=0.5, phi_percent=100.0, seed=3)
    ).perturb(test.features, test.labels, defended)
    attacked_result = restored.localize(adversarial)
    print(
        f"guard verdicts: clean batch {int(clean_result.guard_flags.sum())}/"
        f"{len(clean_result)} flagged, attacked batch "
        f"{int(attacked_result.guard_flags.sum())}/{len(attacked_result)} flagged"
    )


if __name__ == "__main__":
    main()
