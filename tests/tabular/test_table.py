"""Tests for repro.tabular.table."""

import numpy as np
import pytest

from repro.tabular import ColumnKind, ColumnSpec, Schema, Table, encode_values


def make_table():
    return Table.from_columns(
        {
            "age": [25.0, 40.0, np.nan, 61.0],
            "sex": ["male", "female", "female", None],
            "income": [30000.0, 52000.0, 41000.0, np.nan],
        }
    )


def test_from_columns_infers_kinds():
    table = make_table()
    assert table.kind_of("age") is ColumnKind.NUMERIC
    assert table.kind_of("sex") is ColumnKind.CATEGORICAL


def test_row_and_len():
    table = make_table()
    assert len(table) == 4
    assert table.column("age")[1] == 40.0
    assert table.column("sex")[1] == "female"


def test_ragged_columns_rejected():
    schema = Schema.of(ColumnSpec.numeric("a"), ColumnSpec.numeric("b"))
    with pytest.raises(ValueError, match="ragged"):
        Table(schema, {"a": np.zeros(2), "b": np.zeros(3)})


def test_columns_must_match_schema():
    schema = Schema.of(ColumnSpec.numeric("a"))
    with pytest.raises(ValueError, match="schema"):
        Table(schema, {"b": np.zeros(2)})


def test_column_returns_copy():
    table = make_table()
    column = table.column("age")
    column[0] = -1.0
    assert table.column("age")[0] == 25.0


def test_is_missing_numeric_and_categorical():
    table = make_table()
    assert list(table.is_missing("age")) == [False, False, True, False]
    assert list(table.is_missing("sex")) == [False, False, False, True]


def test_missing_mask_is_row_union():
    assert list(make_table().missing_mask()) == [False, False, True, True]


def test_missing_counts():
    assert make_table().missing_counts() == {"age": 1, "sex": 1, "income": 1}


def test_drop_columns():
    table = make_table().drop_columns(["sex"])
    assert table.column_names == ("age", "income")


def test_mask_rows():
    table = make_table()
    filtered = table.mask_rows(~table.missing_mask())
    assert len(filtered) == 2
    assert filtered.column("age")[0] == 25.0


def test_mask_rows_rejects_wrong_shape():
    with pytest.raises(ValueError):
        make_table().mask_rows(np.array([True, False]))


def test_mask_rows_rejects_non_boolean():
    with pytest.raises(ValueError):
        make_table().mask_rows(np.array([1, 0, 1, 0]))


def test_take_rows_allows_repeats():
    table = make_table().take_rows(np.array([0, 0, 1]))
    assert len(table) == 3
    assert table.column("age")[1] == 25.0


def test_with_numeric_column_replaces():
    table = make_table().with_numeric_column("age", np.array([1.0, 2.0, 3.0, 4.0]))
    assert table.column("age")[2] == 3.0
    assert table.column_names == ("age", "sex", "income")


def test_with_column_appends():
    table = make_table().with_categorical_column(
        "city", ["ams", "nyc", "ams", "nyc"]
    )
    assert "city" in table.schema
    assert table.column("city")[0] == "ams"


def test_with_column_does_not_mutate_original():
    table = make_table()
    table.with_numeric_column("age", np.zeros(4))
    assert table.column("age")[0] == 25.0


def test_copy_is_deep():
    table = make_table()
    clone = table.copy()
    assert clone == table
    assert clone is not table


def test_equality_with_nan():
    assert make_table() == make_table()


def test_inequality_on_value_change():
    other = make_table().with_numeric_column("age", np.array([1.0, 2.0, 3.0, 4.0]))
    assert make_table() != other


def test_sample_rows_without_replacement_unique():
    rng = np.random.default_rng(0)
    table = make_table().sample_rows(4, rng)
    assert sorted(v for v in table.column("income") if not np.isnan(v)) == [
        30000.0,
        41000.0,
        52000.0,
    ]


def test_sample_rows_too_many_without_replacement():
    with pytest.raises(ValueError):
        make_table().sample_rows(5, np.random.default_rng(0))


def test_sample_rows_with_replacement():
    rng = np.random.default_rng(0)
    table = make_table().sample_rows(10, rng, replace=True)
    assert len(table) == 10


def test_shuffled_preserves_multiset():
    rng = np.random.default_rng(7)
    table = make_table().shuffled(rng)
    assert sorted(str(v) for v in table.column("sex")) == sorted(
        str(v) for v in make_table().column("sex")
    )


def test_distinct_categorical_excludes_missing():
    assert make_table().categorical("sex").present_values() == ["female", "male"]


def test_categorical_coerces_to_str():
    table = Table.from_columns({"code": ["1", "2", "1"]})
    assert table.categorical("code").present_values() == ["1", "2"]


def test_empty_table():
    schema = Schema.of(ColumnSpec.numeric("x"), ColumnSpec.categorical("y"))
    table = Table.empty(schema)
    assert len(table) == 0
    assert table.missing_counts() == {"x": 0, "y": 0}


def test_repr_mentions_row_count():
    assert "4 rows" in repr(make_table())


def test_from_trusted_columns_adopts_without_copy():
    schema = Schema.of(ColumnSpec.numeric("x"))
    arr = np.array([1.0, 2.0])
    table = Table.from_trusted_columns(schema, {"x": arr})
    assert table._column_view("x") is arr
    assert table.n_rows == 2


def test_from_trusted_columns_rejects_wrong_dtype():
    schema = Schema.of(ColumnSpec.numeric("x"))
    with pytest.raises(ValueError, match="trusted adoption"):
        Table.from_trusted_columns(schema, {"x": np.array([1, 2], dtype=np.int64)})


def test_from_trusted_columns_rejects_ragged_and_mismatched():
    schema = Schema.of(ColumnSpec.numeric("x"), ColumnSpec.categorical("y"))
    with pytest.raises(ValueError, match="do not match schema"):
        Table.from_trusted_columns(schema, {"x": np.zeros(2)})
    with pytest.raises(ValueError, match="CategoricalColumn"):
        Table.from_trusted_columns(
            schema,
            {"x": np.zeros(2), "y": np.array(["a", "b"], dtype=object)},
        )
    with pytest.raises(ValueError, match="ragged"):
        Table.from_trusted_columns(
            schema,
            {
                "x": np.zeros(2),
                "y": encode_values(np.array(["a", "b", "c"], dtype=object)),
            },
        )
