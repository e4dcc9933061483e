"""Gradient-boosted decision trees (substrate for the SANGRIA baseline).

SANGRIA [19] couples a stacked autoencoder with a *categorical
gradient-boosted tree classifier*.  Since no tree library is available
offline, this module implements the required substrate from scratch:

* :class:`DecisionTreeRegressor` — CART regression trees with squared-error
  splits (quantile-subsampled thresholds for speed), and
* :class:`GradientBoostedClassifier` — multi-class boosting that fits one
  regression tree per class per round on the softmax residuals.

Trees are array-encoded: a fitted tree is five parallel node arrays
(feature, threshold, left, right, value) in preorder, left subtree first.  A
leaf has feature ``-1`` and both children pointing at itself, so a walk that
reaches it stays put.  Prediction walks every row at once, one tree level per
step.  The classifier stacks all its trees into one node table and walks
every tree over a block of rows together; boosting itself never predicts, as
growing a tree records the leaf value of every training row.

The split search makes the choices of a per-feature, per-threshold scan, bit
for bit.  One sort of the candidate columns gives every column's cut points
through numpy's own ``linear`` quantile arithmetic (:func:`_quantiles`), and
one mask tensor counts both sides of every (feature, threshold) pair.  The
candidates that can still win are then scored in (feature, ascending
threshold) order with per-candidate ``.sum()`` calls and a strict
``gain > best_gain`` test.  The sums stay per candidate because no
vectorised reduction reproduces numpy's pairwise rounding: in the first
boosting round residuals take two values, so partitions tie in exact
arithmetic and rounding picks the winner.  A vectorised estimate with a
rounding-error bound only rules out the candidates that cannot win.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

__all__ = ["DecisionTreeRegressor", "GradientBoostedClassifier"]

#: Bound on the (trees, rows) temporaries of one stacked walk: the rows of a
#: batch are walked in blocks of ``_BLOCK_ELEMENTS // trees``.
_BLOCK_ELEMENTS = 1 << 16


class _Nodes(NamedTuple):
    """Array-encoded binary trees, nodes in preorder (left subtree first)."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray


def _stack(tables: Sequence[_Nodes]) -> Tuple[_Nodes, np.ndarray]:
    """One node table holding ``tables`` back to back, and each one's root."""
    roots = np.cumsum([0] + [len(table.value) for table in tables[:-1]])
    nodes = _Nodes(
        np.concatenate([table.feature for table in tables]),
        np.concatenate([table.threshold for table in tables]),
        np.concatenate([table.left + root for table, root in zip(tables, roots)]),
        np.concatenate([table.right + root for table, root in zip(tables, roots)]),
        np.concatenate([table.value for table in tables]),
    )
    return nodes, roots


def _quantiles(columns: np.ndarray, quantiles: np.ndarray) -> np.ndarray:
    """``np.quantile(columns, quantiles, axis=0)`` without its Python set-up.

    numpy's ``linear`` method step by step: the virtual index
    ``(n - 1) * q``, its floor and the next row (both the last row from
    ``n - 1`` on), ``gamma`` = the index minus that floor row, and
    ``_lerp``'s two formulas, the second where ``gamma >= 0.5``.  The rows
    come from one sort where numpy partitions, so the values are the same;
    only a column holding both -0.0 and 0.0 may give a zero of the other
    sign, which no ``<=`` test tells apart.  A column with a NaN gives NaN.
    """
    count = columns.shape[0]
    virtual = (count - 1) * quantiles
    below = np.floor(virtual)
    above = below + 1
    last = virtual >= count - 1
    below[last] = above[last] = -1
    below, above = below.astype(np.intp), above.astype(np.intp)
    gamma = (virtual - below)[:, None]
    ordered = np.sort(columns, axis=0)
    low, high = ordered[below], ordered[above]
    step = high - low
    cuts = low + step * gamma
    np.subtract(high, step * (1 - gamma), out=cuts, where=gamma >= 0.5)
    np.copyto(cuts, ordered[-1], where=np.isnan(ordered[-1]))
    return cuts


def _walk(nodes: _Nodes, roots: np.ndarray, depth: int, features: np.ndarray) -> np.ndarray:
    """The leaf every row reaches from every root, shape ``(roots, rows)``."""
    node = np.repeat(roots[:, None], features.shape[0], axis=1)
    rows = np.arange(features.shape[0])
    for _ in range(depth):
        go_left = features[rows, nodes.feature[node]] <= nodes.threshold[node]
        node = np.where(go_left, nodes.left[node], nodes.right[node])
    return node


class DecisionTreeRegressor:
    """CART regression tree with squared-error splitting criterion."""

    def __init__(
        self,
        max_depth: int = 3,
        min_samples_leaf: int = 2,
        max_thresholds: int = 8,
        max_features: Optional[int] = None,
        seed: int = 0,
    ) -> None:
        if max_depth <= 0:
            raise ValueError("max_depth must be positive")
        if min_samples_leaf <= 0:
            raise ValueError("min_samples_leaf must be positive")
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_thresholds = max_thresholds
        self.max_features = max_features
        self.seed = seed
        self._nodes: Optional[_Nodes] = None
        self._depth = 0

    # ------------------------------------------------------------------
    def fit(self, features: np.ndarray, targets: np.ndarray) -> "DecisionTreeRegressor":
        self._grow(features, targets)
        return self

    def predict(self, features: np.ndarray) -> np.ndarray:
        if self._nodes is None:
            raise RuntimeError("tree must be fitted before prediction")
        features = np.asarray(features, dtype=np.float64)
        leaves = _walk(self._nodes, np.zeros(1, dtype=np.intp), self._depth, features)
        return self._nodes.value[leaves[0]]

    # ------------------------------------------------------------------
    def _grow(self, features: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Fit the tree; return the leaf value of every training row."""
        features = np.asarray(features, dtype=np.float64)
        targets = np.asarray(targets, dtype=np.float64)
        if features.ndim != 2:
            raise ValueError("features must be a 2-D array")
        if features.shape[0] != targets.shape[0]:
            raise ValueError("features and targets disagree on the number of samples")
        rng = np.random.default_rng(self.seed)
        quantiles = np.linspace(0.1, 0.9, self.max_thresholds)
        table: List[list] = []
        fitted = np.empty(targets.shape[0], dtype=np.float64)

        def add_subtree(
            features: np.ndarray, targets: np.ndarray, rows: np.ndarray, depth: int
        ) -> int:
            """Append the subtree over ``rows`` to ``table``; return its height."""
            index = len(table)
            value = float(targets.mean()) if targets.size else 0.0
            table.append([-1, 0.0, index, index, value])
            if (
                depth >= self.max_depth
                or targets.size < 2 * self.min_samples_leaf
                or np.allclose(targets, targets[0])
            ):
                fitted[rows] = value
                return 0
            best = self._best_split(features, targets, quantiles, rng)
            if best is None:
                fitted[rows] = value
                return 0
            feature, threshold, left = best
            right = ~left
            node = table[index]
            node[0], node[1], node[2] = feature, threshold, len(table)
            left_height = add_subtree(features[left], targets[left], rows[left], depth + 1)
            node[3] = len(table)
            right_height = add_subtree(features[right], targets[right], rows[right], depth + 1)
            return 1 + max(left_height, right_height)

        self._depth = add_subtree(features, targets, np.arange(targets.shape[0]), 0)
        self._nodes = _Nodes(*(np.array(column) for column in zip(*table)))
        return fitted

    def _best_split(
        self,
        features: np.ndarray,
        targets: np.ndarray,
        quantiles: np.ndarray,
        rng: np.random.Generator,
    ):
        num_samples, num_features = features.shape
        total_sum = targets.sum()
        total_sq = (targets ** 2).sum()
        base_score = total_sq - total_sum ** 2 / num_samples
        if self.max_features is not None and self.max_features < num_features:
            candidate_features = rng.choice(num_features, size=self.max_features, replace=False)
        else:
            candidate_features = np.arange(num_features)
        columns = features[:, candidate_features]
        # (features, thresholds): each candidate column's cut points, ascending.
        cuts = np.sort(_quantiles(columns, quantiles), axis=0).T
        # (features, thresholds, rows): the left side of every candidate.
        left = columns.T[:, None, :] <= cuts[:, :, None]
        left_counts = left.sum(axis=2)
        # A repeated cut point needs no dedupe: its mask, and so its gain,
        # equals the first one's, which the strict test below keeps.
        valid = (left_counts >= self.min_samples_leaf) & (
            num_samples - left_counts >= self.min_samples_leaf
        )
        positions, cuts_at = np.nonzero(valid)
        if positions.size == 0:
            return None
        masks = left[positions, cuts_at]
        counts = left_counts[positions, cuts_at]
        # Score only the candidates that can hold the largest float gain.
        # With u = 2**-53, A = sum|t| and Q = sum t**2, each float gain below
        # lies within 20 (n + 3) u (Q + A**2) of the exact gain, and so does
        # each vectorised estimate here of the exact gain plus the constant
        # total_sum**2 / n.  A candidate whose estimate trails the best one
        # by more than twice both bounds (the slack is 128 (n + 3) u
        # (Q + A**2); its 2**-960 covers rounding among subnormals) has a
        # smaller float gain than the best estimate's candidate, so skipping
        # it changes neither the winner nor which of several tied candidates
        # the ordered scan keeps.  A NaN estimate or slack skips nothing.
        sums = np.where(masks, targets, 0.0).sum(axis=1)
        estimates = sums ** 2 / counts + (total_sum - sums) ** 2 / (num_samples - counts)
        magnitude = total_sq + np.abs(targets).sum() ** 2 + 2.0 ** -960
        slack = 2.0 ** -46 * (num_samples + 3) * magnitude
        best_gain = 1e-12
        best = None
        for candidate in np.flatnonzero(~(estimates < estimates.max() - slack)):
            left_mask = masks[candidate]
            n_left = int(counts[candidate])
            n_right = num_samples - n_left
            left_sum = targets[left_mask].sum()
            right_sum = total_sum - left_sum
            left_sq = (targets[left_mask] ** 2).sum()
            right_sq = total_sq - left_sq
            score = (left_sq - left_sum ** 2 / n_left) + (right_sq - right_sum ** 2 / n_right)
            gain = base_score - score
            if gain > best_gain:
                best_gain = gain
                best = candidate
        if best is None:
            return None
        position, cut = positions[best], cuts_at[best]
        return int(candidate_features[position]), float(cuts[position, cut]), masks[best]


class GradientBoostedClassifier:
    """Multi-class gradient boosting with softmax loss.

    Each boosting round fits one shallow regression tree per class on the
    negative gradient of the multinomial deviance (``one_hot - softmax``).
    """

    def __init__(
        self,
        num_rounds: int = 20,
        learning_rate: float = 0.3,
        max_depth: int = 3,
        min_samples_leaf: int = 2,
        max_features: Optional[int] = None,
        seed: int = 0,
    ) -> None:
        if num_rounds <= 0:
            raise ValueError("num_rounds must be positive")
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        self.num_rounds = num_rounds
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.seed = seed
        self._trees: List[List[DecisionTreeRegressor]] = []
        self._num_classes = 0
        self._prior: Optional[np.ndarray] = None
        self._nodes: Optional[_Nodes] = None
        self._roots: Optional[np.ndarray] = None
        self._depth = 0

    # ------------------------------------------------------------------
    @staticmethod
    def _softmax(logits: np.ndarray) -> np.ndarray:
        shifted = logits - logits.max(axis=1, keepdims=True)
        exps = np.exp(shifted)
        return exps / exps.sum(axis=1, keepdims=True)

    def fit(self, features: np.ndarray, labels: np.ndarray) -> "GradientBoostedClassifier":
        features = np.asarray(features, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.int64)
        num_samples = features.shape[0]
        self._num_classes = int(labels.max()) + 1
        one_hot = np.zeros((num_samples, self._num_classes))
        one_hot[np.arange(num_samples), labels] = 1.0
        class_frequency = one_hot.mean(axis=0)
        self._prior = np.log(np.clip(class_frequency, 1e-12, None))
        logits = np.tile(self._prior, (num_samples, 1))
        self._trees = []
        for round_index in range(self.num_rounds):
            probabilities = self._softmax(logits)
            residuals = one_hot - probabilities
            round_trees: List[DecisionTreeRegressor] = []
            for class_index in range(self._num_classes):
                tree = DecisionTreeRegressor(
                    max_depth=self.max_depth,
                    min_samples_leaf=self.min_samples_leaf,
                    max_features=self.max_features,
                    seed=self.seed + round_index * self._num_classes + class_index,
                )
                update = tree._grow(features, residuals[:, class_index])
                logits[:, class_index] += self.learning_rate * update
                round_trees.append(tree)
            self._trees.append(round_trees)
        trees = [tree for round_trees in self._trees for tree in round_trees]
        self._nodes, self._roots = _stack([tree._nodes for tree in trees])
        self._depth = max(tree._depth for tree in trees)
        return self

    def decision_function(self, features: np.ndarray) -> np.ndarray:
        """Raw (pre-softmax) class scores."""
        if self._prior is None:
            raise RuntimeError("model must be fitted before prediction")
        features = np.asarray(features, dtype=np.float64)
        logits = np.tile(self._prior, (features.shape[0], 1))
        block = max(1, _BLOCK_ELEMENTS // len(self._roots))
        for start in range(0, features.shape[0], block):
            rows = slice(start, start + block)
            leaves = _walk(self._nodes, self._roots, self._depth, features[rows])
            updates = self.learning_rate * self._nodes.value[leaves]
            # Round by round, as boosting added them: one tree per class each.
            for round_updates in updates.reshape(len(self._trees), self._num_classes, -1):
                logits[rows] += round_updates.T
        return logits

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Softmax class probabilities."""
        return self._softmax(self.decision_function(features))

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Most likely class per sample."""
        return self.decision_function(features).argmax(axis=1)
