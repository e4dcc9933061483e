#!/usr/bin/env python3
"""Adversarial attack study: FGSM vs PGD vs MIM across attack strengths.

Reproduces a miniature version of the paper's Figs. 4/5 sweep on one building:
CALLOC is attacked with all three white-box crafting methods while ε and the
fraction of compromised access points (ø) vary, and the resulting localization
errors are rendered as text tables.

Run with:  python examples/adversarial_attack_study.py
"""

from __future__ import annotations

import numpy as np

from repro import ATTACKS, LOCALIZERS
from repro.attacks import ThreatModel, attack_dataset
from repro.data import CampaignConfig, collect_campaign, paper_building
from repro.eval import ascii_table


def main() -> None:
    building = paper_building("Building 3", rp_granularity_m=2.0)
    campaign = collect_campaign(building, CampaignConfig(seed=5))
    print(f"Building 3: {campaign.num_aps} APs, {campaign.num_classes} reference points")

    calloc = LOCALIZERS.create("CALLOC", epochs_per_lesson=8, seed=0)
    calloc.fit(campaign.train)
    online = campaign.test_all_devices()
    print(f"Clean mean error over all devices: {calloc.mean_error(online):.2f} m\n")

    # ------------------------------------------------------------------
    # Sweep attack method x epsilon at a fixed fraction of attacked APs.
    # ------------------------------------------------------------------
    epsilons = (0.1, 0.2, 0.3, 0.4, 0.5)
    rows = []
    for method in ("FGSM", "PGD", "MIM"):
        row = [method]
        for epsilon in epsilons:
            threat = ThreatModel(epsilon=epsilon, phi_percent=50.0, seed=11)
            attacked = attack_dataset(online, ATTACKS.create(method, threat), calloc)
            row.append(calloc.mean_error(attacked))
        rows.append(row)
    print("Mean error (m) vs attack strength (phi = 50% of APs):")
    print(ascii_table(rows, headers=["attack"] + [f"eps={e}" for e in epsilons]))
    print()

    # ------------------------------------------------------------------
    # Sweep the number of attacked APs at the curriculum's training epsilon.
    # ------------------------------------------------------------------
    phis = (10.0, 25.0, 50.0, 75.0, 100.0)
    rows = []
    for method in ("FGSM", "PGD", "MIM"):
        row = [method]
        for phi in phis:
            errors = []
            for seed in (11, 13):
                threat = ThreatModel(epsilon=0.1, phi_percent=phi, seed=seed)
                attacked = attack_dataset(online, ATTACKS.create(method, threat), calloc)
                errors.append(calloc.mean_error(attacked))
            row.append(float(np.mean(errors)))
        rows.append(row)
    print("Mean error (m) vs attacked-AP fraction (epsilon = 0.1):")
    print(ascii_table(rows, headers=["attack"] + [f"phi={p:.0f}%" for p in phis]))


if __name__ == "__main__":
    main()
