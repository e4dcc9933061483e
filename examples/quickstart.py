#!/usr/bin/env python3
"""Quickstart: train CALLOC on a simulated building and localize under attack.

This example walks through the full offline/online pipeline of the paper on a
single building, entirely through the public API:

1. simulate a fingerprint collection campaign (offline phase, OP3 device);
2. stand up a :class:`~repro.api.LocalizationService` around CALLOC (any
   registered model name works — see ``python -m repro list-models``);
3. localize online fingerprints from a different smartphone — first clean,
   then under a white-box FGSM man-in-the-middle attack;
4. compare against an undefended DNN baseline built from the same registry;
5. save the fitted service and reload it bit-for-bit.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import ATTACKS, LOCALIZERS, LocalizationService
from repro.attacks import ThreatModel, attack_dataset
from repro.data import CampaignConfig, collect_campaign, paper_building


def main() -> None:
    # ------------------------------------------------------------------
    # Offline phase: survey the building with the OP3 device.
    # A 2 m reference-point granularity keeps this example fast; the paper
    # uses 1 m (pass rp_granularity_m=1.0 to reproduce it).
    # ------------------------------------------------------------------
    building = paper_building("Building 1", rp_granularity_m=2.0)
    campaign = collect_campaign(building, CampaignConfig(seed=7))
    print(campaign.summary())
    print()

    # ------------------------------------------------------------------
    # Train CALLOC through its 10-lesson adversarial curriculum, behind the
    # online-serving facade.
    # ------------------------------------------------------------------
    service = LocalizationService(
        "CALLOC", params={"epochs_per_lesson": 8, "seed": 0}
    )
    service.fit(campaign.train)
    calloc = service.localizer
    print("CALLOC curriculum training summary:")
    print(calloc.training_report.summary())
    print()
    print("Trainable parameter budget:", calloc.parameter_report())
    print()

    # An undefended DNN baseline trained on the same database, built by name.
    dnn = LOCALIZERS.create("DNN", epochs=40, seed=0)
    dnn.fit(campaign.train)

    # ------------------------------------------------------------------
    # Online phase: localize scans from a different smartphone (Galaxy S7).
    # ------------------------------------------------------------------
    online = campaign.test_for("S7")
    result = service.localize(online)
    print(f"Clean online fingerprints ({online.num_samples} scans from S7):")
    print(
        f"  CALLOC mean error: {service.evaluate(online).mean:.2f} m "
        f"(mean self-estimate {result.error_estimate.mean():.2f} m)"
    )
    print(f"  DNN    mean error: {dnn.error_summary(online).mean:.2f} m")
    print()

    # ------------------------------------------------------------------
    # Channel-side MITM attack: FGSM perturbations on 50% of the APs.
    # ------------------------------------------------------------------
    threat = ThreatModel(epsilon=0.3, phi_percent=50.0, seed=3)
    attacked_for_calloc = attack_dataset(online, ATTACKS.create("FGSM", threat), calloc)
    attacked_for_dnn = attack_dataset(online, ATTACKS.create("FGSM", threat), dnn)
    print("Under white-box FGSM attack (epsilon=0.3, phi=50% of APs):")
    print(f"  CALLOC mean error: {service.evaluate(attacked_for_calloc).mean:.2f} m")
    print(f"  DNN    mean error: {dnn.error_summary(attacked_for_dnn).mean:.2f} m")
    print()

    # ------------------------------------------------------------------
    # Persist the fitted service and reload it: identical predictions.
    # ------------------------------------------------------------------
    with tempfile.TemporaryDirectory() as tmp:
        path = service.save(Path(tmp) / "calloc_service.npz")
        restored = LocalizationService.load(path)
        same = (restored.localize(online).labels == result.labels).all()
        print(f"Saved to {path.name}; reloaded predictions identical: {bool(same)}")


if __name__ == "__main__":
    main()
