"""Delta-aware computation reuse across cleaned dataset versions.

The study's workload is dominated by near-duplicate training sets: a
repaired version differs from its parent (the dirty version, or an
earlier repair of the same split) in only the rows a cleaning strategy
touched. This module lets the runner exploit that structure without
ever changing a result byte:

- :func:`table_delta` / :class:`VersionDelta` — the row-delta manifest:
  which rows and columns of a child version's train/test tables (and
  which train labels) differ from an aligned parent version.
- :class:`ReuseScope` — a content-addressed memo store for one work
  unit. Estimators consult the active scope (a thread-local set by
  ``runner.run_repetition_cells``) for cached pure-function results
  keyed by the *bytes* of their inputs: booster presort orders, tuned
  hyperparameters and whole tuned-model evaluations. Array-valued
  kinds live until the unit ends; the tuned-model results
  (:data:`RESULT_KINDS`) live in :func:`repetition_results`, shared by
  the sibling units of one ``(dataset, repetition)``.
- :func:`featurize_version` / :func:`incremental_featurize` — cold and
  reused featurisation. When no categorical cell changed, the
  incremental path reuses the parent's one-hot block whole; otherwise
  it declines and the version is featurised cold. The numeric block is
  always recomputed (the scaler refit is vectorised and cheap, and any
  changed numeric cell shifts every standardised value in its column
  anyway).

Identity discipline (the PR 3 contract): every reuse path either
produces output byte-identical to the cold computation or declines and
falls back. Content-addressed memo hits are identical by construction
— equal input bytes into a deterministic function give equal output
bytes. Incremental featurisation is identical by construction because
it reuses a one-hot block only when no categorical cell changed, so
the child's categorical columns, and hence its fitted categories, are
the parent's.

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
    "TableDelta",
    "VersionDelta",
    "FeatureArtifacts",
    "active",
    "drop_repetition_results",
    "repetition_results",
    "reuse_scope",
    "table_delta",
    "version_delta",
    "featurize_version",
    "incremental_featurize",
    "masks_reusable",
]


# -- row-delta manifests -------------------------------------------------


@dataclass(frozen=True)
class TableDelta:
    """Cell-level difference between two aligned tables.

    Attributes:
        n_rows: Row count of both tables.
        changed_rows: Sorted indices of rows with at least one changed
            cell (in any column).
        changed_columns: Names of columns with at least one changed
            cell, in schema order.
        changed_categorical: The categorical subset of
            ``changed_columns`` (these gate one-hot block reuse).
    """

    n_rows: int
    changed_rows: np.ndarray
    changed_columns: tuple[str, ...]
    changed_categorical: tuple[str, ...]

    @property
    def is_empty(self) -> bool:
        return self.changed_rows.size == 0


def _column_changed(kind: ColumnKind, a, b) -> np.ndarray:
    """Elementwise changed mask; NaN==NaN and missing==missing count as equal."""
    if kind is ColumnKind.NUMERIC:
        return (a != b) & ~(np.isnan(a) & np.isnan(b))
    # dictionary-encoded columns: compare int32 codes over a common
    # pool (zero-copy when the pools already match, which they do
    # along a version lineage); -1 == -1 keeps missing unchanged
    codes_a, codes_b = aligned_codes(a, b)
    return codes_a != codes_b


def table_delta(parent: Table, child: Table) -> TableDelta | None:
    """Delta manifest of ``child`` relative to ``parent``.

    Returns ``None`` when the tables are not aligned — different row
    counts, column names or column kinds — in which case no row-level
    reuse is meaningful (e.g. the missing-values dirty baseline, which
    drops incomplete train tuples).
    """
    if parent.n_rows != child.n_rows:
        return None
    if parent.column_names != child.column_names:
        return None
    if any(
        parent.kind_of(name) is not child.kind_of(name)
        for name in child.column_names
    ):
        return None
    changed = np.zeros(child.n_rows, dtype=bool)
    columns: list[str] = []
    categorical: list[str] = []
    for name in child.column_names:
        kind = child.kind_of(name)
        if kind is ColumnKind.NUMERIC:
            a = parent._column_view(name)
            b = child._column_view(name)
        else:
            a = parent.categorical(name)
            b = child.categorical(name)
        if a is b:
            continue
        diff = _column_changed(kind, a, b)
        if diff.any():
            changed |= diff
            columns.append(name)
            if kind is ColumnKind.CATEGORICAL:
                categorical.append(name)
    return TableDelta(
        n_rows=child.n_rows,
        changed_rows=np.nonzero(changed)[0],
        changed_columns=tuple(columns),
        changed_categorical=tuple(categorical),
    )


@dataclass(frozen=True)
class VersionDelta:
    """Row-delta manifest of one cleaned version against a parent.

    ``parent`` is the runner's parent ``_Version`` object (held
    opaquely to keep this module independent of the runner); ``train``
    and ``test`` are its table deltas and ``label_rows`` the train
    rows whose label changed (mislabel flips).
    """

    parent: Any
    train: TableDelta
    test: TableDelta
    label_rows: np.ndarray

    @property
    def cost(self) -> int:
        """Parent-selection heuristic: fewer changed cells is better.

        Categorical train changes are weighted by the table size
        because they rule out reusing the parent's one-hot block.
        """
        penalty = self.train.n_rows if self.train.changed_categorical else 0
        return int(
            self.train.changed_rows.size
            + self.test.changed_rows.size
            + self.label_rows.size
            + penalty
        )


def version_delta(
    parent_train: Table,
    parent_train_labels: np.ndarray,
    parent_test: Table,
    child_train: Table,
    child_train_labels: np.ndarray,
    child_test: Table,
    parent: Any = None,
) -> VersionDelta | None:
    """Build a :class:`VersionDelta`, or ``None`` if not aligned."""
    if parent_train_labels.shape != child_train_labels.shape:
        return None
    train = table_delta(parent_train, child_train)
    if train is None:
        return None
    test = table_delta(parent_test, child_test)
    if test is None:
        return None
    label_rows = np.nonzero(parent_train_labels != child_train_labels)[0]
    return VersionDelta(parent=parent, train=train, test=test, label_rows=label_rows)


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
    delta: VersionDelta,
    train: Table,
    test: Table,
) -> FeatureArtifacts | None:
    """Featurise a child version by reusing its parent's one-hot block.

    The numeric block is recomputed (vectorised, cheap, and its scaler
    statistics shift whenever any numeric cell changes); the one-hot
    block — the per-row Python loop that dominates featurisation — is
    reused whole. Declines (``None``) when a categorical cell of the
    train or test table changed, when there is nothing categorical to
    reuse, or when the parent was fitted over different feature
    columns; the caller then featurises cold.
    """
    parent_featurizer = parent.featurizer
    if tuple(feature_columns or ()) != tuple(parent_featurizer.feature_columns or ()):
        return None
    numeric_names = parent_featurizer._numeric_names
    categorical_names = parent_featurizer._categorical_names
    if not categorical_names:
        # numeric-only featurisation has no expensive part to reuse
        return None
    if delta.train.changed_categorical or delta.test.changed_categorical:
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


def masks_reusable(
    spec_attributes: Sequence[str], test_delta: TableDelta
) -> bool:
    """True when no changed test column is referenced by a group spec.

    Group masks are a pure function of the test table's sensitive
    columns; if the delta manifest shows those columns untouched, the
    parent's masks are the child's masks.
    """
    changed = set(test_delta.changed_columns)
    return not any(attribute in changed for attribute in spec_attributes)
