"""Property-based tests for the Table substrate."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tabular import Table, train_test_split_table

_numeric_values = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.just(float("nan")),
)
_categorical_values = st.one_of(st.sampled_from(["a", "b", "c"]), st.none())


@st.composite
def tables(draw, min_rows=0, max_rows=30):
    n = draw(st.integers(min_value=min_rows, max_value=max_rows))
    nums = draw(st.lists(_numeric_values, min_size=n, max_size=n))
    cats = draw(st.lists(_categorical_values, min_size=n, max_size=n))
    return Table.from_columns({"num": np.array(nums, dtype=float), "cat": cats})


@given(tables())
def test_copy_equals_original(table):
    assert table.copy() == table


@given(tables())
def test_missing_mask_matches_columnwise_union(table):
    expected = table.is_missing("num") | table.is_missing("cat")
    assert np.array_equal(table.missing_mask(), expected)


@given(tables())
def test_mask_rows_count(table):
    mask = table.missing_mask()
    assert len(table.mask_rows(mask)) + len(table.mask_rows(~mask)) == len(table)


@given(tables(min_rows=1), st.integers(min_value=0, max_value=2**32 - 1))
def test_shuffle_preserves_missing_count(table, seed):
    shuffled = table.shuffled(np.random.default_rng(seed))
    assert shuffled.missing_counts() == table.missing_counts()


@given(tables(min_rows=10), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30)
def test_split_is_a_partition(table, seed):
    train, test = train_test_split_table(table, 0.3, np.random.default_rng(seed))
    assert len(train) + len(test) == len(table)
    totals = table.missing_counts()
    for name in table.column_names:
        assert train.missing_counts()[name] + test.missing_counts()[name] == totals[name]


@given(tables())
def test_csv_roundtrip_property(tmp_path_factory, table):
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    from repro.tabular import read_csv, write_csv

    write_csv(table, path)
    loaded = read_csv(path, table.schema)
    assert len(loaded) == len(table)
    assert np.array_equal(
        loaded.is_missing("num"), table.is_missing("num")
    )
    assert np.array_equal(
        loaded.is_missing("cat"), table.is_missing("cat")
    )
    ours = table.column("num")
    theirs = loaded.column("num")
    finite = ~np.isnan(ours)
    assert np.allclose(theirs[finite], ours[finite])
