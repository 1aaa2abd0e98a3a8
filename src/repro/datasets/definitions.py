"""Declarative dataset definitions (the paper's Listing 1).

A :class:`DatasetDefinition` bundles everything the benchmark needs to
experiment on a dataset: how to obtain the data, which column is the
label, which attributes to hide from the classifier, which error types
apply, and the privileged-group predicates from which fairness metrics
are computed automatically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.fairness.groups import GroupPredicate, GroupSpec, IntersectionalSpec
from repro.tabular import Table

#: Error types a dataset can declare.
ERROR_TYPES = ("missing_values", "outliers", "mislabels")


def check_n_rows(n_rows: int) -> None:
    """Raise ``ValueError`` unless ``n_rows`` can be generated."""
    if n_rows < 1:
        raise ValueError(f"n_rows must be >= 1, got {n_rows}")


@dataclass(frozen=True)
class DatasetDefinition:
    """Declarative description of a benchmark dataset.

    Attributes:
        name: Dataset identifier, e.g. ``german``.
        source_domain: Domain label from the paper's Table I.
        generator: Callable ``(n_rows, seed) -> Table`` producing the
            data, including the label column.
        default_n_rows: The size reported in Table I (generation
            default; callers may request any size).
        label: Name of the 0/1 label column (1 = desirable outcome).
        error_types: Which of the paper's error types apply.
        drop_variables: Columns hidden from the classifier (always
            includes the sensitive attributes).
        privileged_groups: Single-attribute group definitions.
        intersectional_pairs: Index pairs into ``privileged_groups``
            forming intersectional definitions (empty when the dataset
            has a single sensitive attribute).
        ml_task: Only ``classification`` is supported.
    """

    name: str
    source_domain: str
    generator: Callable[[int, int], Table]
    default_n_rows: int
    label: str
    error_types: tuple[str, ...]
    drop_variables: tuple[str, ...]
    privileged_groups: tuple[GroupPredicate, ...]
    intersectional_pairs: tuple[tuple[int, int], ...] = ()
    ml_task: str = "classification"
    _specs: tuple[GroupSpec, ...] = field(init=False, repr=False, compare=False,
                                          default=())

    def __post_init__(self) -> None:
        unknown = set(self.error_types) - set(ERROR_TYPES)
        if unknown:
            raise ValueError(f"unknown error types: {sorted(unknown)}")
        if self.ml_task != "classification":
            raise ValueError(f"unsupported ml_task {self.ml_task!r}")
        if not self.privileged_groups:
            raise ValueError("at least one privileged group is required")
        for first, second in self.intersectional_pairs:
            if not (
                0 <= first < len(self.privileged_groups)
                and 0 <= second < len(self.privileged_groups)
            ):
                raise ValueError(
                    f"intersectional pair ({first}, {second}) out of range"
                )
        specs = tuple(
            GroupSpec(predicate.attribute, predicate)
            for predicate in self.privileged_groups
        )
        object.__setattr__(self, "_specs", specs)

    @property
    def group_specs(self) -> tuple[GroupSpec, ...]:
        """Single-attribute group specs derived from the predicates."""
        return self._specs

    @property
    def intersectional_specs(self) -> tuple[IntersectionalSpec, ...]:
        """Intersectional specs derived from ``intersectional_pairs``."""
        return tuple(
            IntersectionalSpec(self._specs[first], self._specs[second])
            for first, second in self.intersectional_pairs
        )

    @property
    def sensitive_attributes(self) -> tuple[str, ...]:
        """Names of the sensitive attributes."""
        return tuple(predicate.attribute for predicate in self.privileged_groups)

    def feature_columns(self, table: Table) -> tuple[str, ...]:
        """Columns visible to the classifier for ``table``."""
        hidden = set(self.drop_variables) | {self.label}
        return tuple(
            name for name in table.column_names if name not in hidden
        )

    def generate(self, n_rows: int | None = None, seed: int = 0) -> Table:
        """Generate ``n_rows`` tuples (Table I size by default)."""
        n = n_rows if n_rows is not None else self.default_n_rows
        check_n_rows(n)
        table = self.generator(n, seed)
        self.validate_table(table)
        return table

    def validate_table(self, table: Table) -> None:
        """Check that a table is usable under this definition."""
        if self.label not in table.schema:
            raise ValueError(f"table lacks label column {self.label!r}")
        for predicate in self.privileged_groups:
            if predicate.attribute not in table.schema:
                raise ValueError(
                    f"table lacks sensitive attribute {predicate.attribute!r}"
                )
        for name in self.drop_variables:
            if name not in table.schema:
                raise ValueError(f"table lacks drop variable {name!r}")
