#!/usr/bin/env python
"""Benchmark harness for the defense subsystem (``repro.defenses``).

Two costs matter when a deployment turns hardening on:

``training``
    Offline: how much more expensive is defended training than a plain fit?
    The harness trains one gradient-capable model undefended and under each
    training-time defense (curriculum, PGD adversarial training, input
    noise) on the quick-profile grid and reports wall-clock per variant plus
    clean/attacked mean error, so the robustness-for-compute trade is one
    JSON document.
``guard``
    Online: what does the adversarial-fingerprint detector cost per request?
    The harness replays single-fingerprint requests through a served CALLOC
    (the paper's production model) with and without the guard attached and
    reports the per-request overhead.  Predictions must be bit-identical with
    the guard in monitor mode, and the overhead is gated below
    ``--max-guard-overhead`` (default 10 %).

Results are written to ``BENCH_defenses.json`` (override with ``--output``)::

    python benchmarks/bench_defenses.py
    python benchmarks/bench_defenses.py --model CNN --requests 5000

Exit status is non-zero when guarded predictions diverge or the guard
overhead exceeds the gate.
"""

from __future__ import annotations

import argparse
import copy
import time
from typing import Callable, Dict, Optional, Sequence

import numpy as np

import harness  # first: puts src/ on sys.path
from repro.api import PROFILES, LocalizationService, default_model_params
from repro.attacks import FGSMAttack, ThreatModel
from repro.data.campaign import LocalizationCampaign
from repro.data.fingerprint import denormalize_rss
from repro.defenses import DefenseSpec
from repro.eval import EvaluationConfig
from repro.registry import make_localizer

#: Training-time defenses compared against the undefended baseline.
TRAINING_DEFENSES = ("none", "curriculum", "pgd-adversarial", "input-noise")


def _attacked(features: np.ndarray, labels: np.ndarray, victim) -> np.ndarray:
    """A strong FGSM batch (ε = 0.3, ø = 50 %) for the robustness columns."""
    attack = FGSMAttack(ThreatModel(epsilon=0.3, phi_percent=50.0, seed=11))
    return attack.perturb(features, labels, victim)


def bench_training(
    model: str, campaign: LocalizationCampaign, config: EvaluationConfig
) -> Dict[str, Dict[str, float]]:
    """Train the model under every defense; report cost and clean/attacked error."""
    test = campaign.test_for(config.devices[0])
    params = default_model_params(model, config)
    variants: Dict[str, Dict[str, float]] = {}
    for name in TRAINING_DEFENSES:
        print(f"training {model} under '{name}' ...", flush=True)
        instance = make_localizer(model, **params)
        defense = DefenseSpec.create(name).build()
        wall, _ = harness.timed(defense.wrap_training, instance, campaign.train)
        clean = instance.error_summary(test)
        attacked = instance.error_summary(
            test.with_rss(
                denormalize_rss(_attacked(test.features, test.labels, instance))
            )
        )
        variants[name] = {
            "train_s": round(wall, 3),
            "clean_mean_err_m": round(clean.mean, 4),
            "attacked_mean_err_m": round(attacked.mean, 4),
        }
        print(
            f"  {wall:.1f}s, clean {clean.mean:.2f}m, "
            f"FGSM(0.3, 50%) {attacked.mean:.2f}m"
        )
    baseline = variants["none"]["train_s"]
    for name, row in variants.items():
        row["train_cost_factor"] = round(row["train_s"] / baseline, 3) if baseline else None
    return variants


def bench_guard(
    plain: LocalizationService,
    campaign: LocalizationCampaign,
    config: EvaluationConfig,
    queries: np.ndarray,
) -> Dict[str, object]:
    """Per-request guard overhead: guarded vs unguarded localize on one model."""
    guarded = copy.copy(plain).attach_guard(DefenseSpec.create("detector"), dataset=campaign.train)
    requests = queries.shape[0]
    labels = {name: np.empty(requests, dtype=np.int64) for name in ("unguarded", "guarded")}

    def drive(service: LocalizationService, out: np.ndarray) -> Callable[[], float]:
        def run() -> float:
            start = time.perf_counter()
            for index in range(requests):
                out[index] = service.localize(queries[index]).labels[0]
            return time.perf_counter() - start

        return run

    # Warm caches/allocators, then run paired passes and keep each mode's
    # best pass: a ratio gate on two single back-to-back runs would flake on
    # any background load landing in one of them.
    for index in range(min(200, requests)):
        plain.localize(queries[index])
        guarded.localize(queries[index])
    repeats = 3
    print(
        f"replaying {requests} single-fingerprint requests x {repeats} "
        "paired passes (unguarded vs detector guard) ...",
        flush=True,
    )
    run = harness.paired(
        {
            "unguarded": drive(plain, labels["unguarded"]),
            "guarded": drive(guarded, labels["guarded"]),
        },
        repeats,
        ratio=("guarded", "unguarded"),
    )
    best = {name: min(walls) for name, walls in run["samples"].items()}
    modes = {
        name: {"wall_s": round(wall, 4), "per_request_us": round(wall / requests * 1e6, 2)}
        for name, wall in best.items()
    }
    print(f"  unguarded {modes['unguarded']['per_request_us']}us/request")
    print(f"  guarded   {modes['guarded']['per_request_us']}us/request")
    overhead = best["guarded"] / best["unguarded"] - 1.0
    test = campaign.test_for(config.devices[0])
    flagged = guarded.localize(
        _attacked(test.features, test.labels, _surrogate(campaign))
    ).guard_flags
    print(
        f"guard overhead {overhead * 100:.1f}% per request, "
        f"attacked flag rate {flagged.mean() * 100:.0f}%"
    )
    return {
        "model": plain.model_name,
        "requests": requests,
        **modes,
        "overhead_fraction": round(overhead, 4),
        "identical_predictions": bool(np.array_equal(labels["unguarded"], labels["guarded"])),
        "attacked_flag_rate": round(float(flagged.mean()), 4),
    }


def _surrogate(campaign):
    """A cheap gradient provider for crafting the guard's attacked batch."""
    model = make_localizer("DNN", hidden_dims=(32,), epochs=10, seed=0)
    model.fit(campaign.train)
    return model


def measure(args: argparse.Namespace) -> Dict[str, object]:
    config = PROFILES[args.profile]()
    print(f"training served model {args.guard_model} ...", flush=True)
    plain, campaign, queries = harness.served_model(
        args.guard_model, args.building, config, args.requests, cache=False
    )
    return {
        "profile": args.profile,
        "model": args.model,
        "building": args.building,
        "training": bench_training(args.model, campaign, config),
        "guard": bench_guard(plain, campaign, config, queries),
    }


def gate(args: argparse.Namespace, report: Dict[str, object], gates: harness.Gates) -> None:
    guard = report["guard"]
    gates.identity({"guarded_vs_unguarded": guard["identical_predictions"]},
                   "guarded predictions diverged from unguarded")
    gates.at_most("max_guard_overhead", guard["overhead_fraction"], args.max_guard_overhead,
                  "per-request guard overhead", enabled=args.max_guard_overhead > 0)


def build_parser() -> argparse.ArgumentParser:
    parser = harness.parser("defenses", __doc__)
    parser.add_argument(
        "--model",
        default="DNN",
        help="gradient-capable model hardened by the training-time defenses",
    )
    parser.add_argument("--building", default="Building 1")
    parser.add_argument("--profile", default="quick", choices=sorted(PROFILES))
    parser.add_argument("--requests", type=int, default=2000,
                        help="single-fingerprint requests for the guard overhead run")
    parser.add_argument(
        "--guard-model",
        default="CALLOC",
        help="model served behind the guard in the overhead run (CALLOC: the "
        "framework the paper deploys)",
    )
    parser.add_argument(
        "--max-guard-overhead", type=float, default=0.10,
        help="fail when the detector guard adds more than this fraction of "
        "per-request latency (0 disables the gate)",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    return harness.main("defenses", build_parser(), measure, gate, argv)


if __name__ == "__main__":
    raise SystemExit(main())
