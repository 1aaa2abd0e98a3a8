"""Tests for CSV IO and cross-table ops."""

import numpy as np
import pytest

from repro.tabular import (
    ColumnSpec,
    Schema,
    Table,
    read_csv,
    train_test_split_table,
    write_csv,
)


def make_table():
    return Table.from_columns(
        {
            "age": [25.0, np.nan, 61.5],
            "sex": ["male", "female", None],
        }
    )


def test_csv_roundtrip(tmp_path):
    path = tmp_path / "data.csv"
    table = make_table()
    write_csv(table, path)
    loaded = read_csv(path, table.schema)
    assert loaded == table


def test_read_csv_ignores_extra_columns(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("age,extra,sex\n25.0,zzz,male\n")
    schema = Schema.of(ColumnSpec.numeric("age"), ColumnSpec.categorical("sex"))
    table = read_csv(path, schema)
    assert table.column_names == ("age", "sex")
    assert table.column("age")[0] == 25.0


def test_read_csv_missing_schema_column_raises(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("age\n25.0\n")
    schema = Schema.of(ColumnSpec.numeric("age"), ColumnSpec.categorical("sex"))
    with pytest.raises(ValueError, match="missing schema columns"):
        read_csv(path, schema)


def test_read_csv_bad_numeric_reports_location(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("age\n25.0\nnot-a-number\n")
    schema = Schema.of(ColumnSpec.numeric("age"))
    with pytest.raises(ValueError, match=":3"):
        read_csv(path, schema)


def test_read_csv_empty_file_raises(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="empty"):
        read_csv(path, Schema.of(ColumnSpec.numeric("age")))


def test_train_test_split_partitions_rows():
    table = Table.from_columns({"x": np.arange(100, dtype=float)})
    train, test = train_test_split_table(table, 0.25, np.random.default_rng(3))
    assert len(train) == 75
    assert len(test) == 25
    combined = sorted(np.concatenate([train.column("x"), test.column("x")]))
    assert combined == list(np.arange(100, dtype=float))


def test_train_test_split_bad_fraction():
    table = Table.from_columns({"x": np.arange(10, dtype=float)})
    with pytest.raises(ValueError):
        train_test_split_table(table, 0.0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        train_test_split_table(table, 1.0, np.random.default_rng(0))


def test_train_test_split_empty_partition_guard():
    table = Table.from_columns({"x": np.arange(3, dtype=float)})
    with pytest.raises(ValueError, match="empty partition"):
        train_test_split_table(table, 0.01, np.random.default_rng(0))


def test_train_test_split_deterministic_under_seed():
    table = Table.from_columns({"x": np.arange(50, dtype=float)})
    train_a, __ = train_test_split_table(table, 0.2, np.random.default_rng(42))
    train_b, __ = train_test_split_table(table, 0.2, np.random.default_rng(42))
    assert train_a == train_b
