"""Computation reuse across the cleaned versions of one repetition.

A repetition's versions (the dirty one and each repair) are
near-duplicates: a repair touches few cells, and many repairs touch no
categorical cell at all. This module lets the runner exploit that
without ever changing a result byte:

- :func:`version_delta` — the one question the runner asks of two
  versions: are their train and test tables aligned, with equal
  categorical cells? Each repaired version reuses the one-hot block of
  the first earlier version of its repetition, dirty version first,
  for which the answer is yes.
- :class:`ReuseScope` — a content-addressed memo store for one work
  unit. Estimators consult the active scope (a thread-local set by
  ``runner.run_repetition_cells``) for cached pure-function results
  keyed by the *bytes* of their inputs: booster presort orders, tuned
  hyperparameters and whole tuned-model evaluations. Array-valued
  kinds live until the unit ends; the tuned-model results
  (:data:`RESULT_KINDS`) live in :func:`repetition_results`, shared by
  the sibling units of one ``(dataset, repetition)``.
- :func:`featurize_version` / :func:`incremental_featurize` — cold and
  reused featurisation. The incremental path takes the one-hot block
  of a version that :func:`version_delta` matched and recomputes only
  the numeric block (the scaler refit is vectorised and cheap, and any
  changed numeric cell shifts every standardised value in its column
  anyway).

Identity discipline: every reuse path either produces output
byte-identical to the cold computation or declines and falls back.
Content-addressed memo hits are identical by construction — equal
input bytes into a deterministic function give equal output bytes.
Incremental featurisation is identical by construction because the
one-hot block depends only on the categorical cells and the feature
columns, which the check and the featuriser's column test pin equal.

Nothing here activates outside a scope: ``active()`` returns ``None``
unless the runner opened one, so standalone estimator use — and every
study run with ``StudyConfig.incremental`` off — is untouched.
"""

from __future__ import annotations

import threading
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from repro import obs
from repro.ml.featurize import TabularFeaturizer
from repro.ml.preprocessing import StandardScaler
from repro.tabular import ColumnKind, Table, aligned_codes

__all__ = [
    "RESULT_KINDS",
    "ReuseScope",
    "FeatureArtifacts",
    "active",
    "drop_repetition_results",
    "repetition_results",
    "reuse_scope",
    "version_delta",
    "featurize_version",
    "incremental_featurize",
]


# -- the categorical check ----------------------------------------------


def _categorical_cells_equal(a: Table, b: Table) -> bool:
    """True when ``a`` and ``b`` are aligned — equal row counts, column
    names and column kinds — and every categorical cell is equal.

    Cells compare as dictionary codes over a common pool (zero-copy
    when the pools already match, which they do along a version
    lineage), so missing equals missing. Numeric columns are not
    compared.
    """
    if a.n_rows != b.n_rows or a.column_names != b.column_names:
        return False
    for name in a.column_names:
        kind = a.kind_of(name)
        if kind is not b.kind_of(name):
            return False
        if kind is not ColumnKind.CATEGORICAL:
            continue
        column_a, column_b = a.categorical(name), b.categorical(name)
        if column_a is column_b:
            continue
        codes_a, codes_b = aligned_codes(column_a, column_b)
        if not np.array_equal(codes_a, codes_b):
            return False
    return True


def version_delta(
    parent_train: Table, parent_test: Table, child_train: Table, child_test: Table
) -> bool:
    """Whether a child version may reuse its parent's one-hot block.

    True when the two versions' train tables, and their test tables,
    are aligned with equal categorical cells: the one-hot block depends
    only on those cells and the feature columns, so it is the same
    bytes for both versions. False, for instance, against the
    missing-values dirty baseline, which drops incomplete train tuples.
    """
    return _categorical_cells_equal(parent_train, child_train) and (
        _categorical_cells_equal(parent_test, child_test)
    )


# -- the reuse scope ------------------------------------------------------

_Fingerprint = tuple

#: Memo kinds whose values are tuned-model results: hyperparameters, a
#: validation score and, for ``model_eval``, one prediction vector.
#: They are small and keyed by content alone, so they may outlive the
#: unit that computed them (see :func:`repetition_results`).
RESULT_KINDS = frozenset({"model_eval", "model_tune"})


class ReuseScope:
    """Content-addressed memoisation for one work unit.

    Cached values are keyed by the exact bytes of their input arrays
    (shape, dtype, length, CRC-32 and Adler-32 of the raw buffer), so a
    hit is sound by construction: the same deterministic function
    applied to byte-equal inputs returns byte-equal output. Fingerprints
    are cached per array object (the scope keeps the array alive so its
    ``id`` cannot be recycled), making repeat lookups on the versions'
    long-lived matrices O(1).

    The scope itself lives as long as its unit, and with it the
    fingerprint cache and every array-valued memo kind. Values of the
    :data:`RESULT_KINDS` go to ``results`` instead when it is given:
    the runner passes :func:`repetition_results`, so the error-type
    units of one ``(dataset, repetition)`` — whose dirty versions train
    on the same complete rows — tune that training set once.

    Memoised values are treated as immutable by all consumers; the
    scope hands back the same object on every hit.
    """

    def __init__(self, results: dict[tuple, Any] | None = None) -> None:
        self._memo: dict[tuple, Any] = {}
        self._results = self._memo if results is None else results
        self._fingerprints: dict[int, tuple[np.ndarray, _Fingerprint]] = {}
        self.stats: dict[str, list[int]] = {}

    # -- fingerprinting ----------------------------------------------

    def fingerprint(self, array: np.ndarray) -> _Fingerprint:
        """Stable content key of a numeric ndarray."""
        cached = self._fingerprints.get(id(array))
        if cached is not None and cached[0] is array:
            return cached[1]
        data = np.ascontiguousarray(array)
        buffer = memoryview(data).cast("B")
        fingerprint = (
            array.shape,
            str(array.dtype),
            len(buffer),
            zlib.crc32(buffer),
            zlib.adler32(buffer),
        )
        self._fingerprints[id(array)] = (array, fingerprint)
        return fingerprint

    # -- memoisation -------------------------------------------------

    def memo(
        self,
        kind: str,
        arrays: Sequence[np.ndarray],
        extra: tuple,
        compute: Callable[[], Any],
    ) -> Any:
        """Return the cached value for (kind, extra, array bytes) or compute it."""
        key = (kind, extra, tuple(self.fingerprint(array) for array in arrays))
        memo = self._results if kind in RESULT_KINDS else self._memo
        if key in memo:
            self._count(kind, hit=True)
            return memo[key]
        self._count(kind, hit=False)
        value = compute()
        memo[key] = value
        return value

    def _count(self, kind: str, hit: bool) -> None:
        entry = self.stats.setdefault(kind, [0, 0])
        entry[0 if hit else 1] += 1
        obs.counter("reuse_hit" if hit else "reuse_miss", kind=kind)

    def record(self, kind: str, hit: bool) -> None:
        """Count a reuse decision made outside :meth:`memo` (e.g. featurize)."""
        self._count(kind, hit)

    def hits(self) -> int:
        """Total reuse hits so far (all kinds)."""
        return sum(entry[0] for entry in self.stats.values())

    def counts(self) -> dict[str, dict[str, int]]:
        """Per-kind ``{"hits", "misses"}`` snapshot."""
        return {
            kind: {"hits": entry[0], "misses": entry[1]}
            for kind, entry in sorted(self.stats.items())
        }


#: The process's tuned-model results: ``(key, results)`` of the last
#: ``(dataset, repetition)`` a unit ran for, or ``None``.
_REPETITION_RESULTS: tuple[tuple, dict[tuple, Any]] | None = None


def repetition_results(key: tuple) -> dict[tuple, Any]:
    """The process's tuned-model results for ``key``.

    ``key`` is a unit's ``(dataset, repetition)``. The process keeps
    the results of one key at a time: a unit of another key replaces
    them, so memory stays bounded by one repetition's tuned results.
    """
    global _REPETITION_RESULTS
    if _REPETITION_RESULTS is None or _REPETITION_RESULTS[0] != key:
        _REPETITION_RESULTS = (key, {})
    return _REPETITION_RESULTS[1]


def drop_repetition_results() -> None:
    """Forget the process's tuned-model results (an in-process run's end)."""
    global _REPETITION_RESULTS
    _REPETITION_RESULTS = None


_LOCAL = threading.local()


def active() -> ReuseScope | None:
    """The thread's active scope, or ``None`` outside a runner repetition."""
    return getattr(_LOCAL, "scope", None)


@contextmanager
def reuse_scope(scope: ReuseScope) -> Iterator[ReuseScope]:
    """Install ``scope`` as the thread's active scope for the block."""
    previous = active()
    _LOCAL.scope = scope
    try:
        yield scope
    finally:
        _LOCAL.scope = previous


# -- featurisation --------------------------------------------------------


@dataclass
class FeatureArtifacts:
    """A fitted featurisation with its block structure exposed.

    ``X_train``/``X_test`` are the matrices the models consume
    (identical to ``TabularFeaturizer.fit(train).transform(...)``);
    ``numeric_width`` is the column offset where the one-hot block
    starts, which is what lets a child version reuse the parent's
    block.
    """

    featurizer: TabularFeaturizer
    X_train: np.ndarray
    X_test: np.ndarray
    numeric_width: int = field(default=0)


def featurize_version(
    feature_columns: tuple[str, ...] | None, train: Table, test: Table
) -> FeatureArtifacts:
    """Cold featurisation: fit on train, transform train and test."""
    featurizer = TabularFeaturizer(feature_columns=feature_columns).fit(train)
    return FeatureArtifacts(
        featurizer=featurizer,
        X_train=featurizer.transform(train),
        X_test=featurizer.transform(test),
        numeric_width=len(featurizer._numeric_names),
    )


def _numeric_block(
    scaler: StandardScaler, names: tuple[str, ...], table: Table
) -> np.ndarray | None:
    """Standardised numeric block, or ``None`` when a column has NaN
    (the cold path raises on NaN; declining routes the tables back
    through it so the error surfaces identically)."""
    numeric = np.column_stack([table.column(name) for name in names])
    if np.isnan(numeric).any():
        return None
    return scaler.transform(numeric)


def incremental_featurize(
    feature_columns: tuple[str, ...] | None,
    parent: FeatureArtifacts,
    train: Table,
    test: Table,
) -> FeatureArtifacts | None:
    """Featurise a child version by reusing its parent's one-hot block.

    The caller has checked :func:`version_delta` between the parent's
    tables and ``train``/``test``. The numeric block is recomputed
    (vectorised, cheap, and its scaler statistics shift whenever any
    numeric cell changes); the one-hot block — the per-row Python loop
    that dominates featurisation — is reused whole. Declines (``None``)
    when there is nothing categorical to reuse, when a numeric cell is
    NaN, or when the parent was fitted over different feature columns;
    the caller then featurises cold.
    """
    parent_featurizer = parent.featurizer
    if tuple(feature_columns or ()) != tuple(parent_featurizer.feature_columns or ()):
        return None
    numeric_names = parent_featurizer._numeric_names
    categorical_names = parent_featurizer._categorical_names
    if not categorical_names:
        # numeric-only featurisation has no expensive part to reuse
        return None
    encoder = parent_featurizer._encoder
    assert encoder is not None
    scaler: StandardScaler | None = None
    numeric_train: np.ndarray | None = None
    numeric_test: np.ndarray | None = None
    if numeric_names:
        raw = np.column_stack([train.column(name) for name in numeric_names])
        if np.isnan(raw).any():
            return None
        scaler = StandardScaler().fit(raw)
        numeric_train = scaler.transform(raw)
        numeric_test = _numeric_block(scaler, numeric_names, test)
        if numeric_test is None:
            return None
    cat_train = parent.X_train[:, parent.numeric_width :]
    cat_test = parent.X_test[:, parent.numeric_width :]
    featurizer = TabularFeaturizer(feature_columns=parent_featurizer.feature_columns)
    featurizer._numeric_names = numeric_names
    featurizer._categorical_names = categorical_names
    featurizer._scaler = scaler
    featurizer._encoder = encoder
    if numeric_names:
        assert numeric_train is not None and numeric_test is not None
        X_train = np.hstack([numeric_train, cat_train])
        X_test = np.hstack([numeric_test, cat_test])
    else:
        X_train = np.hstack([cat_train])
        X_test = np.hstack([cat_test])
    return FeatureArtifacts(
        featurizer=featurizer,
        X_train=X_train,
        X_test=X_test,
        numeric_width=len(numeric_names),
    )
