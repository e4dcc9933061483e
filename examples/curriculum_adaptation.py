#!/usr/bin/env python3
"""Inside the adaptive curriculum: lessons, back-offs and the NC ablation.

This example looks *inside* CALLOC's training process:

* it prints the 10-lesson curriculum (ø escalation, original-data share),
* trains CALLOC with the adaptive controller and shows where the controller
  reverted to best weights and eased the lesson difficulty (ø back-off),
* trains the "NC" (no curriculum) ablation for the same epoch budget, and
* compares the robustness of both variants under a PGD attack.

Run with:  python examples/curriculum_adaptation.py
"""

from __future__ import annotations

from repro import ATTACKS, LOCALIZERS
from repro.attacks import ThreatModel, attack_dataset
from repro.core import Curriculum
from repro.data import CampaignConfig, collect_campaign, paper_building
from repro.eval import ascii_table


def main() -> None:
    print("The CALLOC curriculum (Sec. IV.A):")
    print(Curriculum().describe())
    print()

    building = paper_building("Building 2", rp_granularity_m=2.0)
    campaign = collect_campaign(building, CampaignConfig(seed=13))

    calloc = LOCALIZERS.create("CALLOC", epochs_per_lesson=8, seed=0)
    calloc.fit(campaign.train)
    print("Adaptive curriculum training (per-lesson summary):")
    print(calloc.training_report.summary())
    print(
        f"\nTotal epochs: {calloc.training_report.total_epochs}, "
        f"adaptive back-offs: {calloc.training_report.total_backoffs}\n"
    )

    no_curriculum = LOCALIZERS.create("CALLOC", epochs_per_lesson=8, use_curriculum=False, seed=0)
    no_curriculum.fit(campaign.train)

    online = campaign.test_all_devices()
    threat = ThreatModel(epsilon=0.2, phi_percent=60.0, seed=21)
    rows = []
    for name, model in (("CALLOC (curriculum)", calloc), ("NC (no curriculum)", no_curriculum)):
        attacked = attack_dataset(online, ATTACKS.create("PGD", threat), model)
        rows.append([name, model.mean_error(online), model.mean_error(attacked)])
    print("Clean vs PGD-attacked mean error (m):")
    print(ascii_table(rows, headers=["variant", "clean", "PGD eps=0.2, phi=60%"]))


if __name__ == "__main__":
    main()
