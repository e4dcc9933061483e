#!/usr/bin/env python
"""Op-level benchmark for the numeric kernels: layers, losses, attacks.

Measures forward/backward throughput (elements per second) for the hot
numeric primitives the evaluation grid spends its time in — dense and
convolutional layers, the classification losses, the gradient attacks, the
graph-free CALLOC kernels and SANGRIA's boosted trees — and cross-checks the
vectorized implementations against straightforward per-position / per-row
reference loops, the CALLOC kernels against the autograd graph, and the
stacked tree walk against per-tree accumulation, for **bitwise** agreement.

The identity checks are the point: every kernel here used to be a Python
loop, and the vectorized replacements are only allowed to ship because they
produce the same bits.  The throughput numbers exist so a future change that
quietly re-introduces a per-element loop fails loudly in CI::

    python benchmarks/bench_core.py
    python benchmarks/bench_core.py --check-against BENCH_core.json --tolerance 0.4

Results are written to ``BENCH_core.json`` (override with ``--output``).
Exit status is non-zero when any identity check fails, or — with
``--check-against`` — when any op's throughput drops below
``tolerance * baseline`` or the baseline is missing or shares no op.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence

import numpy as np

import harness  # first: puts src/ on sys.path
from repro.attacks.base import ThreatModel
from repro.attacks.fgsm import FGSMAttack
from repro.attacks.mim import MIMAttack
from repro.attacks.pgd import PGDAttack
from repro.baselines.gbdt import GradientBoostedClassifier
from repro.core import CALLOCModel, kernels
from repro.nn.fastpath import ce_target_matrix
from repro.nn.layers import Conv1d, Linear, MaxPool1d, ReLU
from repro.nn.losses import CrossEntropyLoss, MSELoss
from repro.nn.tensor import Tensor

#: The paper's quick-profile geometry: 165 visible APs, 61 reference points.
NUM_APS = 165
NUM_CLASSES = 61
BATCH = 256
#: CALLOC's rows per training step (TrainerConfig.batch_size) and per
#: stacked ε × ø attack-grid gradient on the quick profile.
CALLOC_TRAIN_ROWS = 32
CALLOC_GRID_ROWS = 198
#: SANGRIA's boosted-tree head on the quick profile: 110 training rows of a
#: 64-wide encoding, 22 classes, 10 rounds of 16-feature trees (220 trees),
#: and one 132-row batch to score.
GBDT_ROWS = 110
GBDT_FEATURES = 64
GBDT_CLASSES = 22
GBDT_ROUNDS = 10
GBDT_MAX_FEATURES = 16
GBDT_PREDICT_ROWS = 132


# ----------------------------------------------------------------------
# Reference implementations (the pre-vectorization loops)
# ----------------------------------------------------------------------
def conv1d_loop(layer: Conv1d, inputs: Tensor) -> Tensor:
    """Per-output-position Conv1d, the implementation the gather replaced."""
    batch, channels, length = inputs.shape
    if layer.padding > 0:
        left = Tensor(np.zeros((batch, channels, layer.padding)))
        right = Tensor(np.zeros((batch, channels, layer.padding)))
        inputs = Tensor.concatenate([left, inputs, right], axis=2)
        length = length + 2 * layer.padding
    out_length = (length - layer.kernel_size) // layer.stride + 1
    columns = []
    for position in range(out_length):
        start = position * layer.stride
        patch = inputs[:, :, start : start + layer.kernel_size]
        columns.append(patch.reshape(batch, channels * layer.kernel_size))
    stacked = Tensor.stack(columns, axis=1)
    output = stacked.matmul(layer.weight) + layer.bias
    return output.transpose(0, 2, 1)


def maxpool1d_loop(layer: MaxPool1d, inputs: Tensor) -> Tensor:
    """Per-window MaxPool1d reference."""
    batch, channels, length = inputs.shape
    out_length = (length - layer.kernel_size) // layer.stride + 1
    columns = []
    for position in range(out_length):
        start = position * layer.stride
        window = inputs[:, :, start : start + layer.kernel_size]
        columns.append(window.max(axis=2))
    return Tensor.stack(columns, axis=2)


def _calloc_model(rng: np.random.Generator) -> CALLOCModel:
    """A CALLOC network at the benchmark geometry, moved off its init."""
    model = CALLOCModel(
        num_aps=NUM_APS,
        num_classes=NUM_CLASSES,
        reference_features=rng.random((NUM_CLASSES, NUM_APS)),
        reference_positions=rng.random((NUM_CLASSES, 2)) * 30.0,
        rng=np.random.default_rng(5),
    )
    for param in model.parameters():
        param.data = param.data + rng.normal(0.0, 0.05, size=param.data.shape)
    return model


def _gbdt_data(rng: np.random.Generator):
    features = rng.random((GBDT_ROWS, GBDT_FEATURES))
    labels = np.arange(GBDT_ROWS) % GBDT_CLASSES
    return features, labels


def _gbdt_fit(features: np.ndarray, labels: np.ndarray) -> GradientBoostedClassifier:
    model = GradientBoostedClassifier(
        num_rounds=GBDT_ROUNDS, max_features=GBDT_MAX_FEATURES, seed=0
    )
    return model.fit(features, labels)


def _calloc_autograd_step(model: CALLOCModel, features, labels) -> float:
    inputs = Tensor(features)
    loss = CrossEntropyLoss()(model(inputs), labels)
    loss = loss + model.embedding_reconstruction_loss(inputs) * 0.05
    loss.backward()
    return loss.item()


class _QuadraticVictim:
    """Deterministic :class:`GradientProvider`: grad of ½‖x − aₗ‖²."""

    def __init__(self, rng: np.random.Generator) -> None:
        self.anchors = rng.random((NUM_CLASSES, NUM_APS))

    def loss_gradient(self, features: np.ndarray, labels: np.ndarray) -> np.ndarray:
        features = np.atleast_2d(features)
        labels = np.atleast_1d(labels)
        return features - self.anchors[labels]


def _attack_rowwise(attack, features, labels, victim) -> np.ndarray:
    """Per-fingerprint attack loop — the transport the batched path replaced."""
    rows = [
        attack.perturb(features[i], labels[i], victim)
        for i in range(features.shape[0])
    ]
    return np.stack(rows, axis=0)


# ----------------------------------------------------------------------
# Identity checks
# ----------------------------------------------------------------------
def _grads(output: Tensor, *leaves: Tensor):
    output.sum().backward()
    return [leaf.grad.copy() for leaf in leaves]


def _bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and bool(
        np.all(a.view(np.uint64) == b.view(np.uint64))
    )


def run_identity_checks(rng: np.random.Generator) -> Dict[str, bool]:
    checks: Dict[str, bool] = {}

    # Conv1d: overlapping windows (stride < kernel) is the hard case — the
    # backward scatter must accumulate window gradients in loop order.
    for label, kwargs in (
        ("conv1d_strided", dict(kernel_size=5, stride=2, padding=2)),
        ("conv1d_overlap", dict(kernel_size=3, stride=1, padding=1)),
    ):
        layer = Conv1d(2, 4, rng=np.random.default_rng(7), **kwargs)
        data = rng.standard_normal((8, 2, 40))
        fast_in = Tensor(data.copy(), requires_grad=True)
        loop_in = Tensor(data.copy(), requires_grad=True)
        fast_out = layer(fast_in)
        fast_grads = _grads(fast_out, fast_in, layer.weight, layer.bias)
        layer.zero_grad()
        loop_out = conv1d_loop(layer, loop_in)
        loop_grads = _grads(loop_out, loop_in, layer.weight, layer.bias)
        layer.zero_grad()
        checks[label] = _bitwise_equal(fast_out.data, loop_out.data) and all(
            _bitwise_equal(f, s) for f, s in zip(fast_grads, loop_grads)
        )

    # MaxPool1d: repeated values force tie-breaking through the same path.
    pool = MaxPool1d(2)
    data = rng.integers(-3, 4, size=(8, 4, 40)).astype(np.float64)
    fast_in = Tensor(data.copy(), requires_grad=True)
    loop_in = Tensor(data.copy(), requires_grad=True)
    fast_out = pool(fast_in)
    (fast_grad,) = _grads(fast_out, fast_in)
    loop_out = maxpool1d_loop(pool, loop_in)
    (loop_grad,) = _grads(loop_out, loop_in)
    checks["maxpool1d"] = _bitwise_equal(fast_out.data, loop_out.data) and _bitwise_equal(
        fast_grad, loop_grad
    )

    # Attacks: one batched perturb == per-fingerprint loop, bit for bit.
    victim = _QuadraticVictim(rng)
    features = rng.random((32, NUM_APS))
    labels = rng.integers(0, NUM_CLASSES, size=32)
    threat = ThreatModel(epsilon=0.3, phi_percent=50.0, seed=3)
    # PGD's random start draws ONE seeded noise stream over the whole batch,
    # so a per-row loop legitimately sees different draws — the batched-vs-loop
    # identity only holds for the deterministic iteration, which is what the
    # vectorization changed.  random_start stays on in the throughput section.
    for name, attack in (
        ("fgsm", FGSMAttack(threat)),
        ("pgd", PGDAttack(threat, random_start=False)),
        ("mim", MIMAttack(threat)),
    ):
        batched = attack.perturb(features, labels, victim)
        rowwise = _attack_rowwise(attack, features, labels, victim)
        checks[f"attack_{name}_batched"] = _bitwise_equal(batched, rowwise)

    # CALLOC: graph-free kernels == autograd graph.  Two identically built
    # models take one training step each (same dropout/noise draws).
    fused = _calloc_model(np.random.default_rng(1))
    graph = _calloc_model(np.random.default_rng(1))
    features = rng.random((CALLOC_TRAIN_ROWS, NUM_APS))
    labels = rng.integers(0, NUM_CLASSES, size=CALLOC_TRAIN_ROWS)
    targets = ce_target_matrix(labels, NUM_CLASSES, 0.0)
    fused_loss = kernels.train_step(fused, features, targets, 0.05)
    graph_loss = _calloc_autograd_step(graph, features, labels)
    checks["calloc_train_step"] = (
        _bitwise_equal(fused_loss, graph_loss)
        and all(
            _bitwise_equal(f.grad, g.grad)
            for f, g in zip(fused.parameters(), graph.parameters())
        )
        and fused.original_embedding.noise.rng.bit_generator.state
        == graph.original_embedding.noise.rng.bit_generator.state
    )
    # Input gradient one row past a block boundary, then logits (eval mode).
    graph.eval()
    rows = max(1, kernels.BLOCK_ELEMENTS // (NUM_CLASSES * NUM_APS)) + 1
    features = rng.random((rows, NUM_APS))
    labels = rng.integers(0, NUM_CLASSES, size=rows)
    inputs = Tensor(features, requires_grad=True)
    CrossEntropyLoss()(graph(inputs), labels).backward()
    checks["calloc_input_grad"] = _bitwise_equal(
        kernels.input_gradient(graph, features, labels), inputs.grad
    )
    checks["calloc_logits"] = _bitwise_equal(
        kernels.logits(graph, features), graph(Tensor(features)).data
    )

    # Boosted trees: one walk of the stacked node table == each tree's own
    # predict, accumulated round by round and class by class.
    model = _gbdt_fit(*_gbdt_data(rng))
    features = rng.random((GBDT_PREDICT_ROWS, GBDT_FEATURES))
    logits = np.tile(model._prior, (GBDT_PREDICT_ROWS, 1))
    for round_trees in model._trees:
        for class_index, tree in enumerate(round_trees):
            logits[:, class_index] += model.learning_rate * tree.predict(features)
    checks["gbdt_stacked_walk"] = _bitwise_equal(model.decision_function(features), logits)
    return checks


# ----------------------------------------------------------------------
# Throughput
# ----------------------------------------------------------------------
def _throughput(fn: Callable[[], None], elements: int, min_time_s: float = 0.1) -> Dict[str, float]:
    """Best elements/second over repeated runs totalling ``min_time_s``."""
    fn()  # warm-up (allocations, caches)
    best = float("inf")
    spent = 0.0
    iterations = 0
    while spent < min_time_s or iterations < 3:
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
        spent += elapsed
        iterations += 1
    return {
        "elements": elements,
        "iterations": iterations,
        "best_s": round(best, 6),
        "elements_per_s": round(elements / max(best, 1e-12), 1),
    }


def run_throughput(rng: np.random.Generator) -> Dict[str, Dict[str, float]]:
    ops: Dict[str, Dict[str, float]] = {}

    features = rng.random((BATCH, NUM_APS))
    labels = rng.integers(0, NUM_CLASSES, size=BATCH)

    linear = Linear(NUM_APS, 128)
    relu = ReLU()

    def linear_fwd_bwd() -> None:
        x = Tensor(features, requires_grad=True)
        relu(linear(x)).sum().backward()
        linear.zero_grad()

    ops["linear_fwd_bwd"] = _throughput(linear_fwd_bwd, BATCH * NUM_APS)

    conv = Conv1d(1, 8, kernel_size=5, stride=2, padding=2)
    conv_input = features.reshape(BATCH, 1, NUM_APS)

    def conv_fwd_bwd() -> None:
        x = Tensor(conv_input, requires_grad=True)
        conv(x).sum().backward()
        conv.zero_grad()

    ops["conv1d_fwd_bwd"] = _throughput(conv_fwd_bwd, BATCH * NUM_APS)

    pool = MaxPool1d(2)

    def pool_fwd_bwd() -> None:
        x = Tensor(conv_input, requires_grad=True)
        pool(x).sum().backward()

    ops["maxpool1d_fwd_bwd"] = _throughput(pool_fwd_bwd, BATCH * NUM_APS)

    logits_data = rng.standard_normal((BATCH, NUM_CLASSES))
    ce = CrossEntropyLoss()

    def ce_fwd_bwd() -> None:
        logits = Tensor(logits_data, requires_grad=True)
        ce(logits, labels).backward()

    ops["cross_entropy_fwd_bwd"] = _throughput(ce_fwd_bwd, BATCH * NUM_CLASSES)

    mse = MSELoss()
    target = rng.standard_normal((BATCH, NUM_CLASSES))

    def mse_fwd_bwd() -> None:
        predictions = Tensor(logits_data, requires_grad=True)
        mse(predictions, target).backward()

    ops["mse_fwd_bwd"] = _throughput(mse_fwd_bwd, BATCH * NUM_CLASSES)

    victim = _QuadraticVictim(rng)
    threat = ThreatModel(epsilon=0.3, phi_percent=50.0, seed=3)
    for name, attack in (
        ("fgsm", FGSMAttack(threat)),
        ("pgd", PGDAttack(threat)),
        ("mim", MIMAttack(threat)),
    ):
        ops[f"attack_{name}"] = _throughput(
            lambda attack=attack: attack.perturb(features, labels, victim),
            BATCH * NUM_APS,
        )

    model = _calloc_model(rng)
    step_features = features[:CALLOC_TRAIN_ROWS]
    step_targets = ce_target_matrix(labels[:CALLOC_TRAIN_ROWS], NUM_CLASSES, 0.0)

    def calloc_train_step() -> None:
        model.zero_grad()
        kernels.train_step(model, step_features, step_targets, 0.05)

    model.train()
    ops["calloc_train_step"] = _throughput(calloc_train_step, CALLOC_TRAIN_ROWS * NUM_APS)
    model.eval()
    grid_features = rng.random((CALLOC_GRID_ROWS, NUM_APS))
    grid_labels = rng.integers(0, NUM_CLASSES, size=CALLOC_GRID_ROWS)
    ops["calloc_input_grad"] = _throughput(
        lambda: kernels.input_gradient(model, grid_features, grid_labels),
        CALLOC_GRID_ROWS * NUM_APS,
    )
    ops["calloc_predict"] = _throughput(
        lambda: kernels.logits(model, features), BATCH * NUM_APS
    )

    gbdt_features, gbdt_labels = _gbdt_data(rng)
    ops["gbdt_fit"] = _throughput(
        lambda: _gbdt_fit(gbdt_features, gbdt_labels), GBDT_ROWS * GBDT_FEATURES
    )
    booster = _gbdt_fit(gbdt_features, gbdt_labels)
    batch = rng.random((GBDT_PREDICT_ROWS, GBDT_FEATURES))
    ops["gbdt_predict"] = _throughput(
        lambda: booster.predict_proba(batch), GBDT_PREDICT_ROWS * GBDT_FEATURES
    )
    return ops


def measure(args: argparse.Namespace) -> Dict[str, object]:
    rng = np.random.default_rng(0)
    print("identity checks (vectorized vs loop, fused vs autograd; bitwise) ...", flush=True)
    identity = run_identity_checks(rng)
    for name, passed in identity.items():
        print(f"  {name}: {'ok' if passed else 'MISMATCH'}")
    print("throughput ...", flush=True)
    ops = run_throughput(rng)
    for name, record in ops.items():
        print(f"  {name}: {record['elements_per_s']:.3e} elem/s")
    return {
        "batch": BATCH,
        "num_aps": NUM_APS,
        "num_classes": NUM_CLASSES,
        "identity": identity,
        "ops": ops,
    }


def check_throughput(
    gates: harness.Gates, ops: Dict[str, Dict[str, float]], baseline: Path, tolerance: float
) -> None:
    """Gate every op the baseline also timed at ``tolerance`` × its throughput.

    Fails closed: a missing baseline, one without an ``ops`` map, or one that
    shares no op with this run fails the gate instead of passing unread.
    Ops new in this run are listed and skipped.
    """
    reference = json.loads(baseline.read_text()).get("ops", {}) if baseline.is_file() else {}
    ratios = {
        name: record["elements_per_s"] / reference[name]["elements_per_s"]
        for name, record in ops.items()
        if name in reference
    }
    new = [name for name in ops if name not in ratios]
    if new:
        print(f"  not in {baseline}, so not gated: {new}")
    regressions = [
        f"{name}: {ops[name]['elements_per_s']:.3e} < "
        f"{tolerance} * {reference[name]['elements_per_s']:.3e}"
        for name, ratio in ratios.items()
        if ratio < tolerance
    ]
    gates.check(
        "tolerance",
        round(min(ratios.values()), 4) if ratios else None,
        tolerance,
        bool(ratios) and not regressions,
        f"throughput regressions: {'; '.join(regressions)}"
        if ratios
        else f"no op of this run to compare against in {baseline} "
        "(missing file, no ops map, or no op in common)",
    )


def gate(args: argparse.Namespace, report: Dict[str, object], gates: harness.Gates) -> None:
    gates.identity(report["identity"], "identity checks diverged")
    if args.check_against is not None:
        check_throughput(gates, report["ops"], args.check_against, args.tolerance)


def build_parser() -> argparse.ArgumentParser:
    parser = harness.parser("core", __doc__)
    parser.add_argument(
        "--check-against",
        type=Path,
        default=None,
        help="previous BENCH_core.json to compare throughput against",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.4,
        help="fail ops slower than tolerance * baseline throughput (CI machines "
        "vary widely, so the default is deliberately loose)",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    return harness.main("core", build_parser(), measure, gate, argv)


if __name__ == "__main__":
    raise SystemExit(main())
