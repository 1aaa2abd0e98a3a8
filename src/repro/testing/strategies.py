"""Hypothesis strategies for fault plans and parent→child table edits.

The fault strategies drive the randomized chaos sweeps (``pytest -m
slow``); the delta strategies drive the incremental-reuse identity
properties (``tests/identity``), generating aligned parent/child table
pairs whose differences model the study's cleaning operations —
category flips, imputations of missing cells, outlier clamps —
together with the ground-truth set of edited cells, so each reuse path
can be property-tested in isolation against its cold counterpart. All
strategies produce plain values, so shrinking yields minimal failing
schedules/deltas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from hypothesis import strategies as st

from repro.tabular import Table
from repro.testing.faults import FAULT_KINDS, Fault, FaultPlan

#: Work-unit coordinates: (dataset, error_type, repetition).
UnitCoords = "tuple[str, str, int]"


def fault_kinds(kinds: Sequence[str] = FAULT_KINDS) -> st.SearchStrategy[str]:
    """One of the injectable fault kinds."""
    return st.sampled_from(tuple(kinds))


def faults(
    units: Sequence[tuple[str, str, int]],
    kinds: Sequence[str] = FAULT_KINDS,
    max_at: int = 2,
    max_attempts: int = 3,
) -> st.SearchStrategy[Fault]:
    """A single fault aimed at one of the given work units."""
    if not units:
        raise ValueError("units must not be empty")

    def build(unit: tuple[str, str, int], kind: str, at: int, attempts: int):
        dataset, error_type, repetition = unit
        return Fault(
            kind=kind,
            dataset=dataset,
            error_type=error_type,
            repetition=repetition,
            at=at,
            attempts=attempts,
        )

    return st.builds(
        build,
        unit=st.sampled_from(tuple(units)),
        kind=fault_kinds(kinds),
        at=st.integers(min_value=0, max_value=max_at),
        attempts=st.integers(min_value=1, max_value=max_attempts),
    )


def fault_plans(
    units: Sequence[tuple[str, str, int]],
    kinds: Sequence[str] = FAULT_KINDS,
    max_faults: int = 3,
    max_at: int = 2,
    max_attempts: int = 3,
) -> st.SearchStrategy[FaultPlan]:
    """A plan of up to ``max_faults`` faults over the given units.

    Duplicate (kind, unit, at) combinations are deduplicated so every
    generated fault is observable.
    """
    return st.lists(
        faults(units, kinds=kinds, max_at=max_at, max_attempts=max_attempts),
        max_size=max_faults,
        unique_by=lambda fault: (fault.kind, fault.unit, fault.at),
    ).map(lambda fs: FaultPlan(faults=tuple(fs)))


# -- parent -> child table edits -----------------------------------------

#: Categories drawn for generated categorical columns.
DELTA_CATEGORIES: tuple[str, ...] = ("alpha", "beta", "gamma", "delta")

#: Value grid for generated numeric columns. A small fixed grid keeps
#: float equality exact, so the scalar oracle below is unambiguous.
_NUMERIC_GRID: tuple[float, ...] = (-12.5, -3.0, -1.0, 0.0, 0.5, 2.0, 7.25, 40.0)

#: Clamp window applied by the "clamp" edit kind (an outlier repair).
_CLAMP_LO, _CLAMP_HI = -2.0, 2.0

#: Fill values applied by the "impute" edit kind.
_NUMERIC_FILL, _CATEGORICAL_FILL = 0.5, "alpha"

#: Edit kinds modelling the study's cleaning operations.
DELTA_EDIT_KINDS: tuple[str, ...] = ("flip", "impute", "clamp")


@dataclass(frozen=True)
class DeltaCase:
    """An aligned parent->child table pair with ground-truth edits.

    ``changed_cells`` is computed by a naive scalar oracle over the
    final column arrays (NaN==NaN and None==None count as unchanged),
    so colliding edits that happen to restore a parent value are not
    miscounted.
    """

    parent: Table
    child: Table
    changed_cells: tuple[tuple[int, str], ...]


@dataclass(frozen=True)
class VersionCase:
    """Train and test parent->child pairs on one schema."""

    train: DeltaCase
    test: DeltaCase


def _cell_changed(kind: str, a: object, b: object) -> bool:
    """Scalar oracle mirroring the delta semantics one cell at a time."""
    if kind == "numeric":
        if np.isnan(a) and np.isnan(b):  # type: ignore[arg-type]
            return False
        return a != b
    return a != b


def _draw_schema(draw) -> list[tuple[str, str]]:
    n_numeric = draw(st.integers(min_value=1, max_value=3))
    n_categorical = draw(st.integers(min_value=1, max_value=3))
    schema = [(f"num_{i}", "numeric") for i in range(n_numeric)]
    schema += [(f"cat_{i}", "categorical") for i in range(n_categorical)]
    return schema


def _draw_columns(draw, schema, n_rows: int, allow_missing: bool):
    columns: dict[str, np.ndarray] = {}
    for name, kind in schema:
        if kind == "numeric":
            values = draw(
                st.lists(
                    st.sampled_from(_NUMERIC_GRID), min_size=n_rows, max_size=n_rows
                )
            )
            array = np.array(values, dtype=np.float64)
            if allow_missing:
                holes = draw(
                    st.lists(
                        st.integers(min_value=0, max_value=n_rows - 1),
                        max_size=3,
                        unique=True,
                    )
                )
                array[holes] = np.nan
        else:
            pool = DELTA_CATEGORIES + ((None,) if allow_missing else ())
            values = draw(
                st.lists(st.sampled_from(pool), min_size=n_rows, max_size=n_rows)
            )
            array = np.array(values, dtype=object)
        columns[name] = array
    return columns


def _apply_edit(draw, kind: str, schema, columns, n_rows: int) -> None:
    row = draw(st.integers(min_value=0, max_value=n_rows - 1))
    if kind == "flip":
        name = draw(
            st.sampled_from([n for n, k in schema if k == "categorical"])
        )
        current = columns[name][row]
        replacement = draw(
            st.sampled_from([c for c in DELTA_CATEGORIES if c != current])
        )
        columns[name][row] = replacement
    elif kind == "clamp":
        name = draw(st.sampled_from([n for n, k in schema if k == "numeric"]))
        value = columns[name][row]
        if not np.isnan(value):
            columns[name][row] = min(max(value, _CLAMP_LO), _CLAMP_HI)
    else:  # impute: fills only cells that are actually missing
        name, col_kind = draw(st.sampled_from(schema))
        value = columns[name][row]
        if col_kind == "numeric":
            if np.isnan(value):
                columns[name][row] = _NUMERIC_FILL
        elif value is None:
            columns[name][row] = _CATEGORICAL_FILL


def _draw_pair(
    draw,
    schema,
    min_rows: int,
    max_rows: int,
    allow_missing: bool,
    edit_kinds: Sequence[str],
    max_edits: int,
) -> DeltaCase:
    n_rows = draw(st.integers(min_value=min_rows, max_value=max_rows))
    parent_columns = _draw_columns(draw, schema, n_rows, allow_missing)
    child_columns = {name: array.copy() for name, array in parent_columns.items()}
    n_edits = draw(st.integers(min_value=0, max_value=max_edits))
    for _ in range(n_edits):
        kind = draw(st.sampled_from(tuple(edit_kinds)))
        _apply_edit(draw, kind, schema, child_columns, n_rows)
    changed = tuple(
        (row, name)
        for name, kind in schema
        for row in range(n_rows)
        if _cell_changed(kind, parent_columns[name][row], child_columns[name][row])
    )
    return DeltaCase(
        parent=Table.from_columns(parent_columns),
        child=Table.from_columns(child_columns),
        changed_cells=changed,
    )


@st.composite
def version_cases(
    draw,
    allow_missing: bool = False,
    edit_kinds: Sequence[str] = ("flip", "clamp"),
    max_edits: int = 6,
) -> VersionCase:
    """Train/test parent->child pairs sharing a schema.

    Defaults generate NaN-free numeric columns so both versions
    featurise on the cold path too (the featuriser raises on NaN).
    """
    schema = _draw_schema(draw)
    train = _draw_pair(draw, schema, 8, 24, allow_missing, edit_kinds, max_edits)
    test = _draw_pair(draw, schema, 4, 12, allow_missing, edit_kinds, max_edits)
    return VersionCase(train=train, test=test)
