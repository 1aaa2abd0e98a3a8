"""Tests for repro.tabular.schema."""

import pytest

from repro.tabular import ColumnKind, ColumnSpec, Schema


def make_schema():
    return Schema.of(
        ColumnSpec.numeric("age"),
        ColumnSpec.categorical("sex"),
        ColumnSpec.numeric("income"),
    )


def test_names_preserve_order():
    assert make_schema().names == ("age", "sex", "income")


def test_duplicate_names_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        Schema.of(ColumnSpec.numeric("x"), ColumnSpec.categorical("x"))


def test_contains_and_lookup():
    schema = make_schema()
    assert "age" in schema
    assert "weight" not in schema
    assert schema["sex"].kind is ColumnKind.CATEGORICAL


def test_lookup_unknown_column_raises_keyerror_listing_available():
    with pytest.raises(KeyError, match="available"):
        make_schema()["nope"]


def test_kind_of():
    schema = make_schema()
    assert schema.kind_of("age") is ColumnKind.NUMERIC
    assert schema.kind_of("sex") is ColumnKind.CATEGORICAL


def test_numeric_and_categorical_names():
    schema = make_schema()
    assert schema.numeric_names() == ("age", "income")
    assert schema.categorical_names() == ("sex",)


def test_without_removes_columns():
    schema = make_schema().without(["sex"])
    assert schema.names == ("age", "income")


def test_without_unknown_column_raises():
    with pytest.raises(KeyError, match="unknown"):
        make_schema().without(["ghost"])


def test_len():
    assert len(make_schema()) == 3


def test_schema_equality():
    assert make_schema() == make_schema()
    assert make_schema() != make_schema().without(["sex"])
