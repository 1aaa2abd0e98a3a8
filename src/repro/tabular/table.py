"""The Table data structure.

A Table stores columns as numpy arrays: numeric columns as float64
(NaN = missing) and categorical columns dictionary-encoded as
:class:`~repro.tabular.encoding.CategoricalColumn` — an ``int32``
codes array over an interned string pool (``-1`` = missing). Tables
are immutable by convention — all operations return new tables;
mutation helpers always copy.

Row selection, missingness, equality and statistics all operate on
the codes; Python string objects are materialised only at the
explicit boundaries: :meth:`Table.column` and CSV IO.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

from repro.tabular.encoding import CategoricalColumn, encode_values
from repro.tabular.schema import ColumnKind, ColumnSpec, Schema


def _as_numeric_array(values: Any) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"numeric column must be 1-d, got shape {arr.shape}")
    return arr


def _as_categorical_column(values: Any) -> CategoricalColumn:
    """Canonicalise arbitrary values into an encoded column.

    Already-encoded columns are adopted with a fresh codes buffer
    (tables own their codes; pools are immutable and shared freely).
    """
    if isinstance(values, CategoricalColumn):
        return values.copy()
    return encode_values(values)


class Table:
    """An immutable-by-convention columnar table.

    Build tables either from a schema plus column mapping, or with
    :meth:`from_columns` which infers the schema from numpy dtypes.
    """

    def __init__(self, schema: Schema, columns: Mapping[str, Any]):
        if set(columns) != set(schema.names):
            raise ValueError(
                f"columns {sorted(columns)} do not match schema {list(schema.names)}"
            )
        lengths = {len(columns[name]) for name in schema.names}
        if len(lengths) > 1:
            raise ValueError(f"ragged columns, lengths: {sorted(lengths)}")
        self._schema = schema
        self._columns: dict[str, np.ndarray | CategoricalColumn] = {}
        for spec in schema.columns:
            values = columns[spec.name]
            if spec.kind is ColumnKind.NUMERIC:
                self._columns[spec.name] = _as_numeric_array(values)
            else:
                self._columns[spec.name] = _as_categorical_column(values)
        self._n_rows = lengths.pop() if lengths else 0

    # -- construction --------------------------------------------------

    @staticmethod
    def _from_parts(
        schema: Schema,
        columns: dict[str, np.ndarray | CategoricalColumn],
        n_rows: int,
    ) -> "Table":
        """Adopt already-canonical columns without copy or validation.

        Internal fast path for row/column selection: the caller
        guarantees dtypes, lengths and schema agreement.
        """
        table = Table.__new__(Table)
        table._schema = schema
        table._columns = columns
        table._n_rows = n_rows
        return table

    @staticmethod
    def from_columns(columns: Mapping[str, Any]) -> "Table":
        """Build a table, inferring column kinds.

        Columns with a numeric numpy dtype (or lists of numbers)
        become numeric; :class:`CategoricalColumn` values and
        everything else become categorical.
        """
        specs = []
        converted: dict[str, np.ndarray | CategoricalColumn] = {}
        for name, values in columns.items():
            if isinstance(values, CategoricalColumn):
                specs.append(ColumnSpec.categorical(name))
                converted[name] = values.copy()
                continue
            arr = np.asarray(values)
            if arr.dtype.kind in "fiub":
                specs.append(ColumnSpec.numeric(name))
                converted[name] = arr.astype(np.float64)
            else:
                specs.append(ColumnSpec.categorical(name))
                converted[name] = encode_values(values)
        return Table(Schema(tuple(specs)), converted)

    @staticmethod
    def from_trusted_columns(
        schema: Schema, columns: Mapping[str, np.ndarray | CategoricalColumn]
    ) -> "Table":
        """Build a table adopting the given arrays without copying.

        A zero-copy constructor for transports that already hold
        columns in canonical form (numeric: 1-d float64;
        categorical: :class:`CategoricalColumn` whose int32 codes may
        be read-only views over shared memory). The arrays are adopted
        as-is, so the caller must hand over ownership and never mutate
        them afterwards. Only cheap shape/dtype invariants are
        checked; per-value conversion (the cost this constructor
        exists to avoid) is the caller's responsibility.
        """
        if set(columns) != set(schema.names):
            raise ValueError(
                f"columns {sorted(columns)} do not match schema {list(schema.names)}"
            )
        lengths = set()
        for spec in schema.columns:
            arr = columns[spec.name]
            if spec.kind is ColumnKind.NUMERIC:
                if (
                    not isinstance(arr, np.ndarray)
                    or arr.ndim != 1
                    or arr.dtype != np.float64
                ):
                    raise ValueError(
                        f"column {spec.name!r} must be a 1-d float64 "
                        "array for trusted adoption"
                    )
            else:
                if not isinstance(arr, CategoricalColumn):
                    raise ValueError(
                        f"column {spec.name!r} must be a CategoricalColumn "
                        "for trusted adoption"
                    )
            lengths.add(len(arr))
        if len(lengths) > 1:
            raise ValueError(f"ragged columns, lengths: {sorted(lengths)}")
        return Table._from_parts(
            schema,
            {spec.name: columns[spec.name] for spec in schema.columns},
            lengths.pop() if lengths else 0,
        )

    @staticmethod
    def empty(schema: Schema) -> "Table":
        """Build a zero-row table with the given schema."""
        columns: dict[str, np.ndarray | CategoricalColumn] = {
            spec.name: (
                np.empty(0, dtype=np.float64)
                if spec.kind is ColumnKind.NUMERIC
                else CategoricalColumn(np.empty(0, dtype=np.int32), ())
            )
            for spec in schema.columns
        }
        return Table._from_parts(schema, columns, 0)

    # -- basic accessors -----------------------------------------------

    @property
    def schema(self) -> Schema:
        """The table's schema."""
        return self._schema

    @property
    def n_rows(self) -> int:
        """Number of rows."""
        return self._n_rows

    @property
    def column_names(self) -> tuple[str, ...]:
        """Column names in schema order."""
        return self._schema.names

    def __len__(self) -> int:
        return self._n_rows

    def column(self, name: str) -> np.ndarray:
        """Return the named column's values, materialised.

        Numeric columns come back as a float64 copy; categorical
        columns decode into a fresh object array of ``str | None``.
        This is the string-materialisation boundary — hot paths should
        use :meth:`categorical` instead.
        """
        stored = self._stored(name)
        if isinstance(stored, CategoricalColumn):
            return stored.decode()
        return stored.copy()

    def _stored(self, name: str) -> np.ndarray | CategoricalColumn:
        """Internal zero-copy access; callers must not mutate the result."""
        if name not in self._schema:
            raise KeyError(
                f"no column {name!r}; available: {', '.join(self.column_names)}"
            )
        return self._columns[name]

    def _column_view(self, name: str) -> np.ndarray:
        """Zero-copy view of a numeric column's float64 array."""
        stored = self._stored(name)
        if isinstance(stored, CategoricalColumn):
            raise TypeError(
                f"column {name!r} is categorical; use categorical()"
            )
        return stored

    def categorical(self, name: str) -> CategoricalColumn:
        """The named categorical column's encoded form (zero-copy)."""
        stored = self._stored(name)
        if not isinstance(stored, CategoricalColumn):
            raise TypeError(f"column {name!r} is numeric, not categorical")
        return stored

    def kind_of(self, name: str) -> ColumnKind:
        """Return the kind of the named column."""
        return self._schema.kind_of(name)

    # -- missingness ---------------------------------------------------

    def is_missing(self, name: str) -> np.ndarray:
        """Boolean mask of missing values in the named column."""
        stored = self._stored(name)
        if isinstance(stored, CategoricalColumn):
            return stored.missing_mask()
        return np.isnan(stored)

    def missing_mask(self) -> np.ndarray:
        """Boolean row mask: True where the row has any missing value."""
        mask = np.zeros(self._n_rows, dtype=bool)
        for name in self.column_names:
            mask |= self.is_missing(name)
        return mask

    def missing_counts(self) -> dict[str, int]:
        """Number of missing values per column."""
        return {name: int(self.is_missing(name).sum()) for name in self.column_names}

    # -- selection & transformation -------------------------------------

    def drop_columns(self, names: Sequence[str]) -> "Table":
        """Return a table without the given columns."""
        schema = self._schema.without(tuple(names))
        return Table._from_parts(
            schema,
            {name: self._copied(name) for name in schema.names},
            self._n_rows,
        )

    def _copied(self, name: str) -> np.ndarray | CategoricalColumn:
        return self._columns[name].copy()

    def mask_rows(self, mask: np.ndarray) -> "Table":
        """Return a table with only the rows where ``mask`` is True."""
        mask = np.asarray(mask)
        if mask.dtype != bool or mask.shape != (self._n_rows,):
            raise ValueError(
                f"mask must be a boolean array of length {self._n_rows}, "
                f"got dtype {mask.dtype} shape {mask.shape}"
            )
        columns: dict[str, np.ndarray | CategoricalColumn] = {}
        for name in self.column_names:
            stored = self._columns[name]
            columns[name] = (
                stored.mask(mask)
                if isinstance(stored, CategoricalColumn)
                else stored[mask]
            )
        return Table._from_parts(self._schema, columns, int(mask.sum()))

    def take_rows(self, indices: np.ndarray) -> "Table":
        """Return a table with the rows at ``indices`` (ordered, may repeat)."""
        indices = np.asarray(indices, dtype=np.intp)
        columns: dict[str, np.ndarray | CategoricalColumn] = {}
        for name in self.column_names:
            stored = self._columns[name]
            columns[name] = (
                stored.take(indices)
                if isinstance(stored, CategoricalColumn)
                else stored[indices]
            )
        return Table._from_parts(self._schema, columns, indices.shape[0])

    def with_column(self, name: str, values: Any, kind: ColumnKind) -> "Table":
        """Return a table with the named column replaced or appended."""
        if name in self._schema:
            specs = tuple(
                ColumnSpec(name, kind) if spec.name == name else spec
                for spec in self._schema.columns
            )
        else:
            specs = self._schema.columns + (ColumnSpec(name, kind),)
        columns = {col: self._columns[col].copy() for col in self.column_names}
        columns[name] = values
        return Table(Schema(specs), columns)

    def with_numeric_column(self, name: str, values: Any) -> "Table":
        """Replace or append a numeric column."""
        return self.with_column(name, values, ColumnKind.NUMERIC)

    def with_categorical_column(self, name: str, values: Any) -> "Table":
        """Replace or append a categorical column."""
        return self.with_column(name, values, ColumnKind.CATEGORICAL)

    def copy(self) -> "Table":
        """Deep-copy the table."""
        return Table._from_parts(
            self._schema,
            {name: self._copied(name) for name in self.column_names},
            self._n_rows,
        )

    # -- sampling ------------------------------------------------------

    def sample_rows(
        self, n: int, rng: np.random.Generator, replace: bool = False
    ) -> "Table":
        """Sample ``n`` rows using the supplied generator."""
        if not replace and n > self._n_rows:
            raise ValueError(
                f"cannot sample {n} rows without replacement from {self._n_rows}"
            )
        indices = rng.choice(self._n_rows, size=n, replace=replace)
        return self.take_rows(indices)

    def shuffled(self, rng: np.random.Generator) -> "Table":
        """Return a row-shuffled copy."""
        return self.take_rows(rng.permutation(self._n_rows))

    # -- dunder / display ------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        if self._schema != other._schema or self._n_rows != other._n_rows:
            return False
        for name in self.column_names:
            ours, theirs = self._columns[name], other._columns[name]
            if isinstance(ours, CategoricalColumn):
                assert isinstance(theirs, CategoricalColumn)
                if not ours.values_equal(theirs):
                    return False
            else:
                if not np.array_equal(ours, theirs, equal_nan=True):
                    return False
        return True

    def __repr__(self) -> str:
        kinds = ", ".join(
            f"{spec.name}:{spec.kind.value[:3]}" for spec in self._schema.columns
        )
        return f"Table({self._n_rows} rows; {kinds})"
