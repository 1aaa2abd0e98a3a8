"""Brute-force k-nearest-neighbours classification.

Exact euclidean kNN. Distances are computed in memory-bounded chunks
so that large test sets do not materialise an n_test × n_train matrix
at once. Neighbours of a test row ``x`` are selected on
*half-distances* ``h - x.t``, with ``h = ||t||^2 / 2`` per training row
``t`` cached at fit time: each chunk's product with the training matrix
is formed once, and every 64-row block of it is turned into
half-distances in place just before that block's ``argpartition``,
while the block is still in cache. The textbook
distance is ``d = fl(||t||^2 - 2 x.t)``; since scaling by a power of two
commutes with rounding, ``fl(h - x.t) = d / 2`` exactly, barring
overflow or a subnormal result. Halving is strictly monotone and keeps
equal values equal, so every comparison, tie test and selected index
equals the one made on ``d``. ``_chunk_distances`` keeps the textbook
form as the reference the tests compare against.

A ``score_grid`` fast path evaluates a whole ``n_neighbors`` grid from
one half-distance block per chunk: one ``argpartition`` up to
``max(k) + 1``, one sort of the top block, then prefix votes per ``k``
— with an exact replay of the naive selection, per chunk and ``k``,
for the rows where a distance tie at the ``k``-boundary could make the
selected neighbour set ambiguous.

The chunk size is part of the byte contract, not a free memory knob:
BLAS may sum a row's product in a different order when the same row
sits in a matrix of another height, so splitting a test matrix into
other row chunks can move distance bits, and with them the order of
nearly equal distances. At laptop scale every test matrix fits in one
chunk.

Memory contract: per chunk, one distance block (chunk rows × n_train
float64) plus one selection block (64 × n_train indices) are alive.
Every ``argpartition`` — ``predict_proba``'s, ``score_grid``'s top
block and its tie replay — runs over blocks of 64 distance rows and
keeps only the selected columns, and a chunk's distance block is
released before the next chunk's product is formed. The row block,
unlike the chunk height, is not part of the byte contract: the
products are already computed, and both the half-distance update and
``argpartition`` along axis 1 treat each row on its own, so a block of
64 rows selects exactly what one call over the whole chunk selects. At
paper scale (10,500 training rows, 380-row chunks) row blocks cut the
``tracemalloc`` peak of ``predict_proba`` from 91.4 MiB (two distance
blocks and a full-width index array) to 35.7 MiB, against 35.6 MiB for
one distance block plus one selection block. On a 2-vCPU VM the
benchmark's ``peak_rss_mb`` fell from 102.95–103.14 to 81.14–81.42 on
``linear-slice`` and from 96.19–97.04 to 74.02–75.59 on ``linear-x2``.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.ml.base import BaseClassifier, split_single_parameter_grid

# Distance cells per chunk. Changing it can change distance bits (see
# the module docstring): at one OpenBLAS thread, splitting the test rows
# into other chunks changed ``_chunk_distances`` bits in 45 of 60 random
# (shape, chunk rows) cases. The benchmark's test matrices fit in one
# chunk (4M cells / 1800 train rows >= 1200 test rows), so a smaller
# value must first show unchanged study records.
_CHUNK_TARGET_CELLS = 4_000_000

# Distance rows per ``argpartition`` call. It bounds each call's index
# array to _SELECT_ROWS × n_train; it cannot change which neighbours are
# selected (see the module docstring).
_SELECT_ROWS = 64


def _nearest(
    distances: np.ndarray,
    count: int,
    rows: np.ndarray | None = None,
    half_sq: np.ndarray | None = None,
) -> np.ndarray:
    """``np.argpartition(distances[rows], count - 1, axis=1)[:, :count]``.

    ``rows`` defaults to every row. The selection runs over blocks of
    ``_SELECT_ROWS`` rows, each writing only its ``count`` selected
    columns, so no full-width index array is formed.

    With ``half_sq`` (and every row), ``distances`` holds a chunk's
    products ``chunk @ X.T``: each block is first turned into
    half-distances ``half_sq - products`` in place, so on return the
    whole array holds half-distances.
    """
    assert rows is None or half_sq is None
    n_rows = distances.shape[0] if rows is None else rows.size
    nearest = np.empty((n_rows, count), dtype=np.intp)
    for start in range(0, n_rows, _SELECT_ROWS):
        stop = start + _SELECT_ROWS
        if rows is None:
            block = distances[start:stop]
            if half_sq is not None:
                np.subtract(half_sq, block, out=block)
        else:
            block = distances[rows[start:stop]]
        nearest[start:stop] = np.argpartition(block, count - 1, axis=1)[:, :count]
    return nearest


class KNearestNeighborsClassifier(BaseClassifier):
    """kNN classifier with probability = fraction of positive neighbours.

    Args:
        n_neighbors: Number of neighbours to vote (capped at the
            training-set size at fit time).
    """

    def __init__(self, n_neighbors: int = 5) -> None:
        if n_neighbors < 1:
            raise ValueError(f"n_neighbors must be >= 1, got {n_neighbors}")
        self.n_neighbors = n_neighbors
        self._X: np.ndarray | None = None
        self._y: np.ndarray | None = None
        self._train_sq: np.ndarray | None = None
        self._half_sq: np.ndarray | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "KNearestNeighborsClassifier":
        X, y = self._check_fit_inputs(X, y)
        if X.shape[0] == 0:
            raise ValueError("cannot fit kNN on an empty training set")
        self._X = X
        self._y = y
        self._train_sq = np.sum(X**2, axis=1)
        self._half_sq = 0.5 * self._train_sq
        return self

    def _check_test_matrix(self, X: np.ndarray) -> np.ndarray:
        assert self._X is not None
        X = self._check_predict_inputs(X)
        if X.shape[1] != self._X.shape[1]:
            raise ValueError(
                f"expected {self._X.shape[1]} features, got {X.shape[1]}"
            )
        return X

    def _chunk_distances(self, chunk: np.ndarray) -> np.ndarray:
        """Squared euclidean distance; constant ||x||^2 term omitted.

        The textbook reference for the half-distances the selection
        runs on (twice these, bit for bit). Built in the product's own
        array: scaling by -2 is exact and ``a - b`` is ``(-b) + a`` in
        IEEE arithmetic, so the bits equal ``train_sq - 2 * (chunk @ X.T)``.
        """
        assert self._X is not None and self._train_sq is not None
        distances = chunk @ self._X.T
        distances *= -2.0
        distances += self._train_sq
        return distances

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        if self._X is None or self._y is None:
            raise RuntimeError("KNearestNeighborsClassifier is not fitted")
        X = self._check_test_matrix(X)
        k = min(self.n_neighbors, self._X.shape[0])
        n_train = self._X.shape[0]
        chunk_rows = max(1, _CHUNK_TARGET_CELLS // max(1, n_train))
        positives = np.empty(X.shape[0], dtype=np.float64)
        for start in range(0, X.shape[0], chunk_rows):
            products = X[start : start + chunk_rows] @ self._X.T
            neighbor_idx = _nearest(products, k, half_sq=self._half_sq)
            # release this block before the next chunk's product is formed
            del products
            positives[start : start + chunk_rows] = self._y[neighbor_idx].mean(axis=1)
        return np.column_stack([1.0 - positives, positives])

    def score_grid(
        self,
        X_train: np.ndarray,
        y_train: np.ndarray,
        X_test: np.ndarray,
        y_test: np.ndarray,
        candidates: "list[dict[str, Any]]",
    ) -> np.ndarray | None:
        """Evaluate an ``n_neighbors`` grid from one distance pass per chunk.

        Byte-identical to fitting and predicting one clone per
        candidate. The neighbour vote is the mean of 0/1 labels over
        the ``k`` nearest training points; whenever the ``k``-th and
        ``(k+1)``-th smallest distances differ strictly, that
        neighbour *set* is unique, so the prefix vote over the sorted
        top block equals the naive ``argpartition`` vote exactly
        (integer label sums are order-independent in float64). Rows
        with a boundary tie are recomputed with the naive per-``k``
        ``argpartition`` over just a chunk's tied rows; it selects row
        by row exactly as the naive call over the whole chunk does, so
        the naive index selection is reproduced bit for bit.
        """
        spec = split_single_parameter_grid(candidates)
        if spec is None or spec[1] != "n_neighbors":
            return None
        fixed, __, values = spec
        if fixed:
            # n_neighbors is this model's only hyperparameter
            return None
        if any(
            not isinstance(value, (int, np.integer)) or value < 1 for value in values
        ):
            return None
        self.fit(X_train, y_train)
        assert self._X is not None and self._y is not None
        X = self._check_test_matrix(X_test)
        n_train = self._X.shape[0]
        ks = [min(int(value), n_train) for value in values]
        kmax = max(ks)
        block = min(kmax + 1, n_train)
        chunk_rows = max(1, _CHUNK_TARGET_CELLS // max(1, n_train))
        positives = np.empty((len(ks), X.shape[0]), dtype=np.float64)
        for start in range(0, X.shape[0], chunk_rows):
            chunk = X[start : start + chunk_rows]
            # the chunk's products, half-distances once selected on
            distances = chunk @ self._X.T
            if block < n_train:
                block_idx = _nearest(distances, block, half_sq=self._half_sq)
            else:
                np.subtract(self._half_sq, distances, out=distances)
                block_idx = np.broadcast_to(
                    np.arange(n_train), (chunk.shape[0], n_train)
                )
            block_vals = np.take_along_axis(distances, block_idx, axis=1)
            order = np.argsort(block_vals, axis=1, kind="stable")
            sorted_vals = np.take_along_axis(block_vals, order, axis=1)
            sorted_labels = np.take_along_axis(
                self._y[block_idx], order, axis=1
            )
            prefix = np.cumsum(sorted_labels, axis=1)
            for index, k in enumerate(ks):
                votes = prefix[:, k - 1] / k
                if k < n_train:
                    # boundary tie: the k nearest are ambiguous as a set —
                    # replay the naive selection on the same distance rows
                    tied_rows = np.nonzero(
                        sorted_vals[:, k] == sorted_vals[:, k - 1]
                    )[0]
                    if tied_rows.size:
                        neighbor_idx = _nearest(distances, k, tied_rows)
                        votes[tied_rows] = self._y[neighbor_idx].mean(axis=1)
                positives[index, start : start + chunk_rows] = votes
            # release this block before the next chunk's product is formed
            del distances
        return (positives >= 0.5).astype(np.int64)
