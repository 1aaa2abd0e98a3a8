"""Dictionary encoding for categorical columns.

A :class:`CategoricalColumn` is the native in-memory representation of
a categorical column: an ``int32`` *codes* array indexing into an
immutable, interned string *pool*, with ``-1`` marking missing values.
Every dataset-sized operation — missingness masks, row selection,
equality, value counts, mode statistics, one-hot encoding, shared-
memory transport — works directly on the codes; Python string objects
are materialised only at explicit boundaries (:meth:`decode`,
``Table.column``, CSV IO).

Invariants
----------

- ``codes`` is a 1-d ``int32`` array; every entry is ``-1`` (missing)
  or a valid index into ``pool``.
- ``pool`` is a tuple of unique, `sys.intern`-ed ``str`` values. It
  may be a *superset* of the values present in ``codes`` (row
  filtering never re-pools), and its order is arbitrary —
  :func:`encode_values` produces a sorted pool, but repairs may append
  fill values, so no consumer may rely on pool order. Everything
  order-sensitive (``distinct``, one-hot categories, mode tie-breaks)
  sorts by the pool *strings*, which makes all derived bytes
  independent of pool layout.
- Columns are immutable by convention: operations return new columns;
  ``codes`` buffers may be read-only views (e.g. over shared memory).

:func:`encode_values` is the one place arbitrary Python values enter
the encoded world (``None``/NaN become missing, everything else goes
through ``str``), preserving the semantics of the historical
object-array representation bit for bit.
"""

from __future__ import annotations

import sys
from typing import Any, Iterable, Sequence

import numpy as np

__all__ = [
    "CategoricalColumn",
    "encode_values",
    "aligned_codes",
    "union_pool",
]

_CODE_DTYPE = np.int32

#: Missing-value code.
MISSING = -1


class CategoricalColumn:
    """An ``int32``-coded categorical column over an interned pool.

    Attributes:
        codes: 1-d ``int32`` array; ``-1`` = missing, otherwise an
            index into ``pool``. Treated as immutable.
        pool: Tuple of unique interned strings the codes index into.
    """

    __slots__ = ("codes", "pool")

    def __init__(
        self,
        codes: np.ndarray,
        pool: tuple[str, ...],
        *,
        copy: bool = False,
        validate: bool = True,
    ) -> None:
        codes = np.asarray(codes)
        if codes.dtype != _CODE_DTYPE:
            codes = codes.astype(_CODE_DTYPE)
        elif copy:
            codes = codes.copy()
        if codes.ndim != 1:
            raise ValueError(f"codes must be 1-d, got shape {codes.shape}")
        if validate or not isinstance(pool, tuple):
            # trusted tuples (validate=False) are adopted as-is so
            # derived columns (take/mask/fill/...) share one pool object
            pool = tuple(sys.intern(str(value)) for value in pool)
        if validate:
            if len(set(pool)) != len(pool):
                raise ValueError("pool contains duplicate values")
            if codes.size:
                low = int(codes.min())
                high = int(codes.max())
                if low < MISSING or high >= len(pool):
                    raise ValueError(
                        f"codes out of range [-1, {len(pool)}): "
                        f"min {low}, max {high}"
                    )
        self.codes = codes
        self.pool = pool

    # -- basics --------------------------------------------------------

    def __len__(self) -> int:
        return self.codes.shape[0]

    def __repr__(self) -> str:
        return (
            f"CategoricalColumn({len(self)} rows, pool of {len(self.pool)})"
        )

    def missing_mask(self) -> np.ndarray:
        """Boolean mask, True where the value is missing."""
        return self.codes < 0

    def decode(self) -> np.ndarray:
        """Materialise the column as an object array of ``str | None``.

        This is the string-materialisation boundary: one fancy-index
        over an object lookup table (``-1`` indexes the trailing
        ``None`` sentinel), the only place codes become Python strings.
        """
        lookup = np.empty(len(self.pool) + 1, dtype=object)
        lookup[:-1] = self.pool
        lookup[-1] = None
        return lookup[self.codes]

    # -- vectorised predicates ----------------------------------------

    def code_of(self, value: str) -> int:
        """Pool index of ``value``, or ``-2`` when not in the pool.

        ``-2`` (not ``-1``) so that a not-in-pool probe never matches
        missing entries.
        """
        try:
            return self.pool.index(value)
        except ValueError:
            return -2

    def eq(self, value: str) -> np.ndarray:
        """Mask of rows equal to ``value`` (missing rows are False)."""
        return self.codes == self.code_of(value)

    def isin(self, values: Iterable[str]) -> np.ndarray:
        """Mask of rows whose value is in ``values`` (missing → False)."""
        wanted = [code for code in (self.code_of(v) for v in values) if code >= 0]
        if not wanted:
            return np.zeros(len(self), dtype=bool)
        return np.isin(self.codes, wanted)

    # -- statistics ----------------------------------------------------

    def counts(self) -> np.ndarray:
        """Occurrences of each pool entry (missing not counted)."""
        present = self.codes[self.codes >= 0]
        return np.bincount(present, minlength=len(self.pool))

    def present_values(self) -> list[str]:
        """Sorted distinct values that actually occur in the column."""
        return sorted(self.pool[int(i)] for i in np.nonzero(self.counts())[0])

    def mode(self) -> str | None:
        """Most frequent present value, lexicographically-smallest on
        ties; ``None`` when every entry is missing."""
        counts = self.counts()
        top = counts.max(initial=0)
        if top == 0:
            return None
        return min(self.pool[int(i)] for i in np.nonzero(counts == top)[0])

    # -- selection / mutation-by-copy ----------------------------------

    def take(self, indices: np.ndarray) -> "CategoricalColumn":
        """Rows at ``indices`` (ordered, may repeat); pool is shared."""
        return CategoricalColumn(
            self.codes[np.asarray(indices, dtype=np.intp)],
            self.pool,
            validate=False,
        )

    def mask(self, mask: np.ndarray) -> "CategoricalColumn":
        """Rows where ``mask`` is True; pool is shared."""
        return CategoricalColumn(self.codes[mask], self.pool, validate=False)

    def copy(self) -> "CategoricalColumn":
        """A column with a fresh codes buffer (pool tuples are shared)."""
        return CategoricalColumn(
            self.codes.copy(), self.pool, validate=False
        )

    def fill_missing(self, value: str) -> "CategoricalColumn":
        """Replace missing entries with ``value``, interning it into
        the pool if absent (appended, preserving existing codes)."""
        code = self.code_of(value)
        pool = self.pool
        if code < 0:
            code = len(pool)
            pool = pool + (sys.intern(str(value)),)
        return CategoricalColumn(
            np.where(self.codes < 0, _CODE_DTYPE(code), self.codes),
            pool,
            validate=False,
        )

    def set_missing(self, mask: np.ndarray) -> "CategoricalColumn":
        """Mark the rows where ``mask`` is True as missing."""
        return CategoricalColumn(
            np.where(np.asarray(mask, dtype=bool), _CODE_DTYPE(MISSING), self.codes),
            self.pool,
            validate=False,
        )

    def recode(self, pool: tuple[str, ...]) -> "CategoricalColumn":
        """Re-express the column over ``pool`` (a superset of the
        present values); raises KeyError when a present value is absent
        from the target pool."""
        if pool == self.pool:
            return self
        index = {value: i for i, value in enumerate(pool)}
        mapping = np.empty(len(self.pool) + 1, dtype=_CODE_DTYPE)
        counts = self.counts()
        for i, value in enumerate(self.pool):
            position = index.get(value)
            if position is None:
                if counts[i]:
                    raise KeyError(
                        f"value {value!r} present in column but absent "
                        "from the target pool"
                    )
                position = MISSING  # unused slot; never indexed by a code
            mapping[i] = position
        mapping[-1] = MISSING  # missing stays missing
        return CategoricalColumn(mapping[self.codes], pool, validate=False)

    # -- equality ------------------------------------------------------

    def values_equal(self, other: "CategoricalColumn") -> bool:
        """True when both columns decode to the same value sequence."""
        ours, theirs = aligned_codes(self, other)
        return bool(np.array_equal(ours, theirs))


def encode_values(values: Any) -> CategoricalColumn:
    """Dictionary-encode arbitrary values into a sorted-pool column.

    Semantics match the historical object-array normalisation exactly:
    ``None`` and float NaN become missing; every other value becomes
    ``str(value)``. The pool is the sorted set of present values, so
    encoding the same value sequence always yields the same
    (pool, codes) pair — including under duplicates and non-ASCII
    strings, which sort by code point like any Python ``str``.
    """
    if isinstance(values, CategoricalColumn):
        return values
    arr = np.asarray(values, dtype=object) if not isinstance(values, np.ndarray) else values
    if arr.dtype != object:
        arr = arr.astype(object)
    if arr.ndim != 1:
        raise ValueError(f"categorical column must be 1-d, got shape {arr.shape}")
    n = arr.shape[0]
    normalized = np.empty(n, dtype=object)
    missing = np.zeros(n, dtype=bool)
    for i, value in enumerate(arr):
        if value is None or (isinstance(value, float) and np.isnan(value)):
            missing[i] = True
        elif type(value) is str:
            normalized[i] = value
        else:
            normalized[i] = str(value)
    present = normalized[~missing]
    codes = np.full(n, MISSING, dtype=_CODE_DTYPE)
    if present.size:
        pool_arr, inverse = np.unique(present, return_inverse=True)
        codes[~missing] = inverse.astype(_CODE_DTYPE)
        pool = tuple(sys.intern(str(v)) for v in pool_arr)
    else:
        pool = ()
    return CategoricalColumn(codes, pool, validate=False)


def union_pool(pools: Sequence[tuple[str, ...]]) -> tuple[str, ...]:
    """Deterministic (sorted) union of several pools."""
    merged: set[str] = set()
    for pool in pools:
        merged.update(pool)
    return tuple(sys.intern(value) for value in sorted(merged))


def aligned_codes(
    a: CategoricalColumn, b: CategoricalColumn
) -> tuple[np.ndarray, np.ndarray]:
    """Codes of both columns over a common pool (zero-copy when the
    pools already match, which they do along version lineages)."""
    if a.pool == b.pool:
        return a.codes, b.codes
    pool = union_pool((a.pool, b.pool))
    return a.recode(pool).codes, b.recode(pool).codes
