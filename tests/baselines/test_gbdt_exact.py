"""The array-encoded trees reproduce the recursive trees bit for bit.

``ReferenceTree`` and ``ReferenceBoosting`` are the node-object
implementation the array-encoded ``repro.baselines.gbdt`` replaced: a
recursive CART tree that scans every feature and every unique quantile
threshold with per-candidate sums, and a booster that predicts each tree row
by row.  Every fitted node, every prediction and every logit must match it
exactly, including where rounding decides between partitions that tie in
exact arithmetic (two-valued targets) and where quantiles repeat.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import gbdt
from repro.baselines.gbdt import DecisionTreeRegressor, GradientBoostedClassifier


# ----------------------------------------------------------------------
# Reference: recursive node-object trees
# ----------------------------------------------------------------------
@dataclass
class _ReferenceNode:
    feature: int = -1
    threshold: float = 0.0
    left: Optional["_ReferenceNode"] = None
    right: Optional["_ReferenceNode"] = None
    value: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.left is None and self.right is None


class ReferenceTree:
    def __init__(
        self, max_depth=3, min_samples_leaf=2, max_thresholds=8, max_features=None, seed=0
    ):
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_thresholds = max_thresholds
        self.max_features = max_features
        self.seed = seed
        self.root: Optional[_ReferenceNode] = None

    def fit(self, features, targets):
        features = np.asarray(features, dtype=np.float64)
        targets = np.asarray(targets, dtype=np.float64)
        self.root = self._build(features, targets, 0, np.random.default_rng(self.seed))
        return self

    def predict(self, features):
        features = np.asarray(features, dtype=np.float64)
        return np.array([self._predict_row(row) for row in features], dtype=np.float64)

    def _predict_row(self, row):
        node = self.root
        while not node.is_leaf:
            node = node.left if row[node.feature] <= node.threshold else node.right
        return node.value

    def _build(self, features, targets, depth, rng):
        node = _ReferenceNode(value=float(targets.mean()) if targets.size else 0.0)
        if (
            depth >= self.max_depth
            or targets.size < 2 * self.min_samples_leaf
            or np.allclose(targets, targets[0])
        ):
            return node
        best = self._best_split(features, targets, rng)
        if best is None:
            return node
        node.feature, node.threshold, left_mask = best
        node.left = self._build(features[left_mask], targets[left_mask], depth + 1, rng)
        node.right = self._build(features[~left_mask], targets[~left_mask], depth + 1, rng)
        return node

    def _best_split(self, features, targets, rng):
        num_samples, num_features = features.shape
        total_sum = targets.sum()
        total_sq = (targets ** 2).sum()
        base_score = total_sq - total_sum ** 2 / num_samples
        best_gain = 1e-12
        best = None
        if self.max_features is not None and self.max_features < num_features:
            candidate_features = rng.choice(num_features, size=self.max_features, replace=False)
        else:
            candidate_features = np.arange(num_features)
        quantiles = np.linspace(0.1, 0.9, self.max_thresholds)
        for feature in candidate_features:
            column = features[:, feature]
            for threshold in np.unique(np.quantile(column, quantiles)):
                left_mask = column <= threshold
                n_left = int(left_mask.sum())
                n_right = num_samples - n_left
                if n_left < self.min_samples_leaf or n_right < self.min_samples_leaf:
                    continue
                left_sum = targets[left_mask].sum()
                right_sum = total_sum - left_sum
                left_sq = (targets[left_mask] ** 2).sum()
                right_sq = total_sq - left_sq
                score = (left_sq - left_sum ** 2 / n_left) + (right_sq - right_sum ** 2 / n_right)
                gain = base_score - score
                if gain > best_gain:
                    best_gain = gain
                    best = (int(feature), float(threshold), left_mask.copy())
        return best

    def preorder(self):
        """(feature, threshold, left, right, value) per node, leaves self-looped."""
        rows: List[list] = []

        def visit(node):
            index = len(rows)
            rows.append([node.feature, node.threshold, index, index, node.value])
            if not node.is_leaf:
                rows[index][2] = visit(node.left)
                rows[index][3] = visit(node.right)
            return index

        visit(self.root)
        return [np.array(column) for column in zip(*rows)]


class ReferenceBoosting:
    def __init__(
        self,
        num_rounds=20,
        learning_rate=0.3,
        max_depth=3,
        min_samples_leaf=2,
        max_features=None,
        seed=0,
    ):
        self.num_rounds = num_rounds
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.seed = seed

    def fit(self, features, labels):
        features = np.asarray(features, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.int64)
        num_samples = features.shape[0]
        self.num_classes = int(labels.max()) + 1
        one_hot = np.zeros((num_samples, self.num_classes))
        one_hot[np.arange(num_samples), labels] = 1.0
        self.prior = np.log(np.clip(one_hot.mean(axis=0), 1e-12, None))
        logits = np.tile(self.prior, (num_samples, 1))
        self.trees = []
        for round_index in range(self.num_rounds):
            residuals = one_hot - GradientBoostedClassifier._softmax(logits)
            round_trees = []
            for class_index in range(self.num_classes):
                tree = ReferenceTree(
                    max_depth=self.max_depth,
                    min_samples_leaf=self.min_samples_leaf,
                    max_features=self.max_features,
                    seed=self.seed + round_index * self.num_classes + class_index,
                )
                tree.fit(features, residuals[:, class_index])
                logits[:, class_index] += self.learning_rate * tree.predict(features)
                round_trees.append(tree)
            self.trees.append(round_trees)
        return self

    def decision_function(self, features):
        features = np.asarray(features, dtype=np.float64)
        logits = np.tile(self.prior, (features.shape[0], 1))
        for round_trees in self.trees:
            for class_index, tree in enumerate(round_trees):
                logits[:, class_index] += self.learning_rate * tree.predict(features)
        return logits


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def _identical(a, b) -> bool:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and bool(np.all(a.view(np.uint64) == b.view(np.uint64)))


def _features(rng, rows, columns, kind):
    if kind == "discrete":  # few distinct values: repeated quantiles
        return rng.integers(0, 3, size=(rows, columns)).astype(np.float64)
    return rng.random((rows, columns))


def _targets(rng, rows, kind, scale):
    if kind == "two-valued":  # round-0 residuals: ties in exact arithmetic
        return np.where(rng.random(rows) < 0.3, 1.0 - 1.0 / 7.0, -1.0 / 7.0) * scale
    if kind == "constant":
        return np.full(rows, 0.25 * scale)
    return rng.normal(size=rows) * scale


tree_inputs = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**16),
        "rows": st.integers(1, 40),
        "columns": st.integers(1, 6),
        "features": st.sampled_from(["continuous", "discrete"]),
        "targets": st.sampled_from(["continuous", "two-valued", "constant"]),
        "scale": st.sampled_from([1.0, 1e-160, 1e-5, 1e5, 1e150]),
        "max_depth": st.integers(1, 4),
        "min_samples_leaf": st.integers(1, 6),
        "max_thresholds": st.integers(1, 9),
        "max_features": st.one_of(st.none(), st.integers(1, 6)),
    }
)


# ----------------------------------------------------------------------
# Cut points
# ----------------------------------------------------------------------
def _columns(rng, rows, columns, kind):
    if kind == "ties":
        return rng.integers(0, 3, size=(rows, columns)).astype(np.float64)
    if kind == "constant":
        return np.repeat(rng.normal(size=(1, columns)), rows, axis=0)
    if kind == "signed-zeros":
        return rng.choice(np.array([-0.0, 0.0, -1.0, 1.0]), size=(rows, columns))
    values = rng.normal(size=(rows, columns)) * 10.0 ** rng.integers(-150, 150)
    if kind == "nan":
        values[rng.random((rows, columns)) < 0.1] = np.nan
    return values


quantile_inputs = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**16),
        "rows": st.integers(1, 110),
        "columns": st.integers(1, 16),
        "kind": st.sampled_from(["continuous", "ties", "constant", "signed-zeros", "nan"]),
        "quantiles": st.one_of(
            st.integers(1, 9).map(lambda count: list(np.linspace(0.1, 0.9, count))),
            st.lists(
                st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
                min_size=1,
                max_size=9,
            ),
        ),
    }
)


@settings(max_examples=300, deadline=None)
@given(quantile_inputs)
def test_cut_points_are_numpys_quantiles(case):
    rng = np.random.default_rng(case["seed"])
    columns = _columns(rng, case["rows"], case["columns"], case["kind"])
    quantiles = np.asarray(case["quantiles"], dtype=np.float64)
    got = gbdt._quantiles(columns, quantiles)
    want = np.quantile(columns, quantiles, axis=0)
    # A sort and numpy's partition may put different ones of two equal
    # zeros at a position: a column holding both -0.0 and 0.0 may then give
    # a zero cut of the other sign (no split can tell).  Otherwise: bits.
    assert _identical(got + 0.0, want + 0.0)
    zeros = columns == 0.0
    mixed = (zeros & np.signbit(columns)).any(axis=0) & (zeros & ~np.signbit(columns)).any(axis=0)
    assert _identical(got[:, ~mixed], want[:, ~mixed])


# ----------------------------------------------------------------------
# Trees
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(tree_inputs)
def test_tree_nodes_and_predictions_match_reference(case):
    rng = np.random.default_rng(case["seed"])
    features = _features(rng, case["rows"], case["columns"], case["features"])
    targets = _targets(rng, case["rows"], case["targets"], case["scale"])
    params = {
        key: case[key]
        for key in ("max_depth", "min_samples_leaf", "max_thresholds", "max_features")
    }
    reference = ReferenceTree(seed=case["seed"], **params).fit(features, targets)
    tree = DecisionTreeRegressor(seed=case["seed"], **params)
    fitted = tree._grow(features, targets)

    for got, want in zip(tree._nodes, reference.preorder()):
        assert _identical(got, want)
    assert _identical(fitted, reference.predict(features))
    fresh = _features(rng, 17, case["columns"], case["features"])
    assert _identical(tree.predict(fresh), reference.predict(fresh))
    assert tree.predict(np.zeros((0, case["columns"]))).shape == (0,)


def test_min_samples_leaf_at_half_the_rows_splits_only_down_the_middle(rng):
    features = rng.random((8, 3))
    targets = rng.normal(size=8)
    tree = DecisionTreeRegressor(max_depth=3, min_samples_leaf=4).fit(features, targets)
    reference = ReferenceTree(max_depth=3, min_samples_leaf=4).fit(features, targets)
    for got, want in zip(tree._nodes, reference.preorder()):
        assert _identical(got, want)
    assert len(tree._nodes.value) in (1, 3)


def test_constant_targets_give_one_leaf_and_no_walk():
    features = np.zeros((5, 0))
    tree = DecisionTreeRegressor().fit(features, np.full(5, 2.5))
    assert tree._depth == 0
    assert _identical(tree.predict(np.zeros((3, 0))), np.full(3, 2.5))


# ----------------------------------------------------------------------
# Boosting
# ----------------------------------------------------------------------
boosting_inputs = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**16),
        "rows": st.integers(2, 40),
        "columns": st.integers(1, 6),
        "classes": st.integers(2, 5),
        "features": st.sampled_from(["continuous", "discrete"]),
        "num_rounds": st.integers(1, 4),
        "max_depth": st.integers(1, 3),
        "min_samples_leaf": st.integers(1, 4),
        "max_features": st.one_of(st.none(), st.integers(1, 6)),
    }
)


@settings(max_examples=30, deadline=None)
@given(boosting_inputs)
def test_boosting_logits_match_reference(case):
    rng = np.random.default_rng(case["seed"])
    features = _features(rng, case["rows"], case["columns"], case["features"])
    labels = rng.integers(0, case["classes"], size=case["rows"])
    params = {
        key: case[key]
        for key in ("num_rounds", "max_depth", "min_samples_leaf", "max_features", "seed")
    }
    reference = ReferenceBoosting(**params).fit(features, labels)
    model = GradientBoostedClassifier(**params).fit(features, labels)

    fresh = _features(rng, 23, case["columns"], case["features"])
    for rows in (features, fresh):
        assert _identical(model.decision_function(rows), reference.decision_function(rows))
    assert model.decision_function(fresh[:0]).shape == (0, reference.num_classes)


def test_row_blocks_do_not_change_the_logits(rng, monkeypatch):
    """Many small blocks of the stacked walk give the one-block logits."""
    features = rng.random((60, 5))
    labels = np.arange(60) % 4
    model = GradientBoostedClassifier(num_rounds=3, max_features=3, seed=2).fit(features, labels)
    whole = model.decision_function(features)
    monkeypatch.setattr(gbdt, "_BLOCK_ELEMENTS", 7 * 12)  # 7 rows per block
    assert _identical(model.decision_function(features), whole)
    reference = ReferenceBoosting(num_rounds=3, max_features=3, seed=2).fit(features, labels)
    assert _identical(whole, reference.decision_function(features))


@pytest.mark.parametrize("rows", [0, 1])
def test_tiny_batches(rng, rows):
    features = rng.random((30, 4))
    labels = np.arange(30) % 3
    model = GradientBoostedClassifier(num_rounds=2, seed=0).fit(features, labels)
    reference = ReferenceBoosting(num_rounds=2, seed=0).fit(features, labels)
    batch = rng.random((rows, 4))
    expected = GradientBoostedClassifier._softmax(reference.decision_function(batch))
    assert _identical(model.predict_proba(batch), expected)
