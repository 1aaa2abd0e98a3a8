"""Isolation forest for multivariate outlier detection.

Direct implementation of Liu, Ting & Zhou's iForest: an ensemble of
random isolation trees built on small subsamples; the anomaly score of
a point is ``2^(-E[h(x)] / c(n))`` where ``h`` is the path length to
isolation and ``c(n)`` the average BST path length. Points whose score
exceeds the ``contamination`` quantile are flagged — matching
scikit-learn's contamination semantics used in the paper (0.01).
``fit`` scores its training rows once, for that quantile, and keeps
their flags in ``train_outliers_``, so flagging the training rows needs
no second scoring pass.

The whole forest lives in one packed struct-of-arrays node table. Trees
are grown iteratively in preorder, drawing the RNG stream in the same
order as a recursive depth-first build, and scored by descending every
tree at once, one level per step.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.ml.base import BaseEstimator


def _average_path_length(n: float) -> float:
    """Expected path length of an unsuccessful BST search among n points."""
    if n <= 1:
        return 0.0
    if n == 2:
        return 1.0
    harmonic = np.log(n - 1.0) + np.euler_gamma
    return 2.0 * harmonic - 2.0 * (n - 1.0) / n


class _PackedForest(NamedTuple):
    """Every tree of a fitted forest in one struct-of-arrays node table."""

    feature: np.ndarray
    threshold: np.ndarray
    children: np.ndarray
    leaf_value: np.ndarray
    roots: np.ndarray
    levels: int


#: Bound on the (trees x rows) node-index matrix one scoring step holds.
_SCORE_CHUNK_CELLS = 1 << 14


def _grow_tree(
    X: np.ndarray, max_depth: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """Grow one isolation tree on ``X`` into node arrays, in preorder.

    The tree is built depth first, left subtree before right, drawing
    one feature and one threshold per split in that order. An internal
    node ``i`` has its left child at ``i + 1``; its right child is
    patched in when emitted. A leaf has feature ``-1``, is its own
    right child and holds its resolved path length ``depth + c(size)``.

    Returns ``(feature, threshold, right, leaf_value, levels)`` with
    tree-local node indices; ``levels`` is the depth of the deepest
    split plus one (0 for a single leaf).
    """
    feature: list[int] = []
    threshold: list[float] = []
    right: list[int] = []
    leaf_value: list[float] = []
    levels = 0
    # (node rows, depth, index of the parent whose right child this is)
    stack: list[tuple[np.ndarray, int, int]] = [(X, 0, -1)]
    while stack:
        node_X, depth, parent = stack.pop()
        index = len(feature)
        if parent >= 0:
            right[parent] = index
        n = node_X.shape[0]
        if depth < max_depth and n > 1:
            lows, highs = node_X.min(axis=0), node_X.max(axis=0)
            splittable = (highs - lows > 0).nonzero()[0]
            if splittable.size:
                f = int(splittable[rng.integers(splittable.size)])
                split = float(rng.uniform(lows[f], highs[f]))
                goes_left = node_X[:, f] < split
                feature.append(f)
                threshold.append(split)
                right.append(-1)
                leaf_value.append(0.0)
                levels = max(levels, depth + 1)
                stack.append((node_X.compress(~goes_left, axis=0), depth + 1, index))
                stack.append((node_X.compress(goes_left, axis=0), depth + 1, -1))
                continue
        feature.append(-1)
        threshold.append(0.0)
        right.append(index)
        leaf_value.append(depth + _average_path_length(n))
    return (
        np.array(feature, dtype=np.intp),
        np.array(threshold, dtype=np.float64),
        np.array(right, dtype=np.intp),
        np.array(leaf_value, dtype=np.float64),
        levels,
    )


def _grow_forest(
    X: np.ndarray,
    n_estimators: int,
    subsample_size: int,
    max_depth: int,
    rng: np.random.Generator,
) -> _PackedForest:
    """Grow every isolation tree and pack them into one node table.

    Per tree the RNG draws one subsample, then the tree's splits. In
    the packed table a leaf tests column 0 and loops back to itself on
    both sides, and ``children[2 * i + 1]`` and ``children[2 * i]`` are
    node ``i``'s left and right child, so ``levels`` descent steps land
    every row in a leaf.
    """
    trees = []
    for __ in range(n_estimators):
        rows = rng.choice(X.shape[0], size=subsample_size, replace=False)
        trees.append(_grow_tree(X[rows], max_depth, rng))
    features, thresholds, rights, leaf_values, levels = zip(*trees)
    roots = np.cumsum([0, *map(len, features[:-1])])
    feature = np.concatenate(features)
    internal = feature >= 0
    nodes = np.arange(feature.size)
    children = np.empty(2 * feature.size, dtype=np.intp)
    children[0::2] = np.concatenate(
        [right + root for right, root in zip(rights, roots)]
    )
    children[1::2] = np.where(internal, nodes + 1, nodes)
    return _PackedForest(
        np.where(internal, feature, 0),
        np.concatenate(thresholds),
        children,
        np.concatenate(leaf_values),
        roots,
        max(levels),
    )


class IsolationForest(BaseEstimator):
    """Isolation forest anomaly detector.

    Args:
        n_estimators: Number of isolation trees.
        max_samples: Subsample size per tree (capped at dataset size).
        contamination: Expected fraction of outliers; sets the decision
            threshold on the fitted scores.
        random_state: Seed.

    After ``fit(X)``, ``train_outliers_`` holds ``predict_outliers(X)``
    (the same bits: it is computed from the same scores).
    """

    def __init__(
        self,
        n_estimators: int = 100,
        max_samples: int = 256,
        contamination: float = 0.01,
        random_state: int = 0,
    ) -> None:
        if not 0.0 < contamination < 0.5:
            raise ValueError(
                f"contamination must be in (0, 0.5), got {contamination}"
            )
        if n_estimators < 1:
            raise ValueError(f"n_estimators must be >= 1, got {n_estimators}")
        self.n_estimators = n_estimators
        self.max_samples = max_samples
        self.contamination = contamination
        self.random_state = random_state
        self._forest: _PackedForest | None = None
        self._subsample_size: int = 0
        self._n_features: int = 0
        self.threshold_: float | None = None
        self.train_outliers_: np.ndarray | None = None

    def fit(self, X: np.ndarray) -> "IsolationForest":
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[0] == 0:
            raise ValueError(f"X must be a non-empty 2-d array, got shape {X.shape}")
        if np.isnan(X).any():
            raise ValueError("X contains NaN; isolation forest needs complete rows")
        rng = np.random.default_rng(self.random_state)
        self._subsample_size = min(self.max_samples, X.shape[0])
        self._n_features = X.shape[1]
        max_depth = int(np.ceil(np.log2(max(2, self._subsample_size))))
        self._forest = _grow_forest(
            X, self.n_estimators, self._subsample_size, max_depth, rng
        )
        scores = self.score_samples(X)
        # contamination-quantile threshold, as in scikit-learn
        self.threshold_ = float(
            np.quantile(scores, 1.0 - self.contamination, method="lower")
        )
        self.train_outliers_ = scores > self.threshold_
        return self

    def score_samples(self, X: np.ndarray) -> np.ndarray:
        """Anomaly scores in (0, 1); higher = more anomalous.

        All trees descend together, one level per step, over row chunks
        that bound the (trees x rows) node matrix. Per-tree path lengths
        are then summed in tree order, as one tree at a time would.
        """
        forest = self._forest
        if forest is None:
            raise RuntimeError("IsolationForest is not fitted")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self._n_features:
            raise ValueError(
                f"expected a 2-d array with {self._n_features} columns, "
                f"got shape {X.shape}"
            )
        n_trees = forest.roots.size
        depths = np.empty(X.shape[0], dtype=np.float64)
        chunk_rows = max(1, _SCORE_CHUNK_CELLS // n_trees)
        for start in range(0, X.shape[0], chunk_rows):
            chunk = np.ascontiguousarray(X[start : start + chunk_rows])
            values = chunk.ravel()
            row_offsets = np.arange(chunk.shape[0]) * chunk.shape[1]
            node = np.repeat(forest.roots[:, None], chunk.shape[0], axis=1)
            for __ in range(forest.levels):
                split_values = values[row_offsets + forest.feature[node]]
                goes_left = split_values < forest.threshold[node]
                node = forest.children[2 * node + goes_left]
            total = np.zeros(chunk.shape[0], dtype=np.float64)
            for lengths in forest.leaf_value[node]:
                total += lengths
            depths[start : start + chunk_rows] = total
        mean_depth = depths / n_trees
        normaliser = _average_path_length(self._subsample_size)
        return np.power(2.0, -mean_depth / max(normaliser, 1e-12))

    def predict_outliers(self, X: np.ndarray) -> np.ndarray:
        """Boolean mask: True where a row is flagged as an outlier."""
        if self.threshold_ is None:
            raise RuntimeError("IsolationForest is not fitted")
        return self.score_samples(X) > self.threshold_
