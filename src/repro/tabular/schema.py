"""Schema descriptions for tables.

A schema is an ordered collection of column specs. Each column is either
numeric (stored as float64, with NaN marking missing values) or
categorical (dictionary-encoded: int32 codes over an interned string
pool, with code -1 marking missing values; see
:mod:`repro.tabular.encoding`). This mirrors the NULL/NaN semantics the
paper's error detectors rely on.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class ColumnKind(enum.Enum):
    """The physical/logical kind of a column."""

    NUMERIC = "numeric"
    CATEGORICAL = "categorical"


@dataclass(frozen=True)
class ColumnSpec:
    """Description of a single column.

    Attributes:
        name: Column name, unique within a schema.
        kind: Whether values are numeric or categorical.
    """

    name: str
    kind: ColumnKind

    @staticmethod
    def numeric(name: str) -> "ColumnSpec":
        """Shorthand for a numeric column spec."""
        return ColumnSpec(name, ColumnKind.NUMERIC)

    @staticmethod
    def categorical(name: str) -> "ColumnSpec":
        """Shorthand for a categorical column spec."""
        return ColumnSpec(name, ColumnKind.CATEGORICAL)


@dataclass(frozen=True)
class Schema:
    """An ordered, immutable collection of column specs."""

    columns: tuple[ColumnSpec, ...]
    _by_name: dict[str, ColumnSpec] = field(
        init=False, repr=False, compare=False, hash=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        by_name: dict[str, ColumnSpec] = {}
        for spec in self.columns:
            if spec.name in by_name:
                raise ValueError(f"duplicate column name {spec.name!r}")
            by_name[spec.name] = spec
        object.__setattr__(self, "_by_name", by_name)

    @staticmethod
    def of(*specs: ColumnSpec) -> "Schema":
        """Build a schema from column specs."""
        return Schema(tuple(specs))

    @property
    def names(self) -> tuple[str, ...]:
        """Column names in schema order."""
        return tuple(spec.name for spec in self.columns)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __len__(self) -> int:
        return len(self.columns)

    def __getitem__(self, name: str) -> ColumnSpec:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(
                f"no column {name!r}; available: {', '.join(self.names)}"
            ) from None

    def kind_of(self, name: str) -> ColumnKind:
        """Return the kind of the named column."""
        return self[name].kind

    def numeric_names(self) -> tuple[str, ...]:
        """Names of all numeric columns, in order."""
        return tuple(
            spec.name for spec in self.columns if spec.kind is ColumnKind.NUMERIC
        )

    def categorical_names(self) -> tuple[str, ...]:
        """Names of all categorical columns, in order."""
        return tuple(
            spec.name for spec in self.columns if spec.kind is ColumnKind.CATEGORICAL
        )

    def without(self, names: tuple[str, ...] | list[str]) -> "Schema":
        """Return a schema with the given columns removed."""
        drop = set(names)
        missing = drop - set(self.names)
        if missing:
            raise KeyError(f"cannot drop unknown columns: {sorted(missing)}")
        return Schema(tuple(spec for spec in self.columns if spec.name not in drop))
