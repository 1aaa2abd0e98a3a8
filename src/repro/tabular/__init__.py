"""Columnar table substrate.

A small, explicit replacement for the subset of pandas that the study
needs: typed columns (numeric float64 with NaN for missing,
categorical dictionary-encoded as int32 codes over an interned string
pool with -1 for missing), boolean masking, row sampling, train/test
splitting and CSV round-trips. Strings materialise only at explicit
boundaries (``Table.column``, CSV IO); everything else runs on the
codes.
"""

from repro.tabular.encoding import (
    CategoricalColumn,
    aligned_codes,
    encode_values,
    union_pool,
)
from repro.tabular.schema import ColumnKind, ColumnSpec, Schema
from repro.tabular.table import Table
from repro.tabular.io import read_csv, write_csv
from repro.tabular.ops import train_test_split_table

__all__ = [
    "CategoricalColumn",
    "ColumnKind",
    "ColumnSpec",
    "Schema",
    "Table",
    "aligned_codes",
    "encode_values",
    "read_csv",
    "union_pool",
    "write_csv",
    "train_test_split_table",
]
