#!/usr/bin/env python3
"""Device-heterogeneity study: train on one smartphone, localize with six.

The paper's campaign collects the offline database with a OnePlus 3 and tests
with six different smartphones whose Wi-Fi chipsets report RSS differently
(Table I).  This example quantifies that gap for CALLOC and two baselines and
shows the per-device error profile (the "rows" of the paper's Fig. 4
heatmaps).  Models are built by registry name, and each device's errors are
computed with a single prediction pass via ``error_summary``.

Run with:  python examples/device_heterogeneity.py
"""

from __future__ import annotations

from repro import LOCALIZERS
from repro.data import CampaignConfig, collect_campaign, device_acronyms, paper_building
from repro.eval import ascii_table


def main() -> None:
    building = paper_building("Building 4", rp_granularity_m=2.0)
    campaign = collect_campaign(building, CampaignConfig(seed=9))
    print(f"{building.name}: {campaign.num_aps} APs, {campaign.num_classes} reference points")
    print(f"Offline database collected with {campaign.config.training_device}\n")

    models = {
        "CALLOC": LOCALIZERS.create("CALLOC", epochs_per_lesson=8, seed=0),
        "ANVIL": LOCALIZERS.create("ANVIL", epochs=40, seed=0),
        "KNN": LOCALIZERS.create("KNN", k=5),
    }
    for model in models.values():
        model.fit(campaign.train)

    # One prediction pass per (model, device); reused for both tables below.
    per_device = {
        name: {
            device: model.error_summary(campaign.test_for(device)).mean
            for device in device_acronyms()
        }
        for name, model in models.items()
    }

    rows = []
    for device in device_acronyms():
        rows.append([device] + [per_device[name][device] for name in models])
    print("Mean localization error (m) per test device (no attack):")
    print(ascii_table(rows, headers=["device"] + list(models)))
    print()

    # Heterogeneity penalty: error on the worst foreign device relative to the
    # training device itself.
    print("Device-heterogeneity penalty (worst foreign device / training device):")
    penalty_rows = []
    for name in models:
        errors = per_device[name]
        training_error = max(errors[campaign.config.training_device], 1e-9)
        worst_device = max(errors, key=errors.get)
        penalty_rows.append(
            [name, worst_device, errors[worst_device], errors[worst_device] / training_error]
        )
    print(ascii_table(penalty_rows, headers=["model", "worst device", "error (m)", "penalty x"]))


if __name__ == "__main__":
    main()
