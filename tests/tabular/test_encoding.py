"""Property and unit tests for the dictionary-encoded categorical plane.

The hypothesis properties pin the encoding's contract: encoding any
value sequence and decoding it back is the identity (missing included),
and the (pool, codes) pair is a pure function of the value sequence —
deterministic under duplicates, interleavings, and non-ASCII strings.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tabular import (
    CategoricalColumn,
    aligned_codes,
    encode_values,
    union_pool,
)

# value pools deliberately include empty strings, surrogates-free
# unicode, and strings that collide under casefolding
category_text = st.text(
    alphabet=st.characters(codec="utf-8", categories=("L", "N", "P", "Zs")),
    max_size=8,
)
cell_values = st.one_of(st.none(), category_text)
value_lists = st.lists(cell_values, max_size=60)


# -- hypothesis round-trip properties ---------------------------------


@given(value_lists)
@settings(max_examples=200)
def test_encode_decode_is_identity(values):
    column = encode_values(values)
    assert list(column.decode()) == values


@given(value_lists)
@settings(max_examples=200)
def test_missing_entries_are_preserved(values):
    column = encode_values(values)
    expected = np.array([v is None for v in values], dtype=bool)
    assert np.array_equal(column.missing_mask(), expected)
    # missing never leaks into the pool or counts
    assert None not in column.pool
    assert column.counts().sum() == (~expected).sum()


@given(st.lists(category_text, min_size=1, max_size=20), st.data())
@settings(max_examples=200)
def test_pool_is_deterministic_under_duplication_and_order(universe, data):
    """Any two sequences with the same value *set* share a pool, and
    equal sequences produce identical codes."""
    indices = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=len(universe) - 1),
            min_size=len(universe),
            max_size=40,
        )
    )
    # force every universe value to appear at least once
    draws = [universe[i] for i in indices] + list(universe)
    column_a = encode_values(draws)
    column_b = encode_values(list(draws))
    assert column_a.pool == column_b.pool
    assert column_a.pool == tuple(sorted(set(universe)))
    assert np.array_equal(column_a.codes, column_b.codes)


@given(value_lists)
@settings(max_examples=100)
def test_recode_to_union_pool_preserves_values(values):
    column = encode_values(values)
    widened = column.recode(union_pool([column.pool, ("zz_extra",)]))
    assert list(widened.decode()) == values
    assert column.values_equal(widened)


# -- unit tests for the code-level operations -------------------------


def test_encoding_normalises_non_strings_and_nan():
    column = encode_values([1, "1", None, float("nan"), 2.5])
    assert list(column.decode()) == ["1", "1", None, None, "2.5"]
    assert column.pool == ("1", "2.5")


def test_eq_and_isin_never_match_missing():
    column = encode_values(["a", None, "b", "a"])
    assert list(column.eq("a")) == [True, False, False, True]
    assert list(column.eq("zzz")) == [False, False, False, False]
    assert list(column.isin(("a", "b"))) == [True, False, True, True]
    assert list(column.isin(("nope",))) == [False, False, False, False]


def test_mode_breaks_ties_lexicographically():
    assert encode_values(["b", "a", "b", "a", "c"]).mode() == "a"
    assert encode_values([None, None]).mode() is None


def test_fill_missing_appends_new_value_to_pool():
    column = encode_values(["a", None, "b"])
    filled = column.fill_missing("zz")
    assert list(filled.decode()) == ["a", "zz", "b"]
    assert filled.pool == ("a", "b", "zz")
    # filling with an existing value reuses its code
    refilled = column.fill_missing("a")
    assert refilled.pool == column.pool
    assert list(refilled.decode()) == ["a", "a", "b"]


def test_take_and_mask_share_the_pool():
    column = encode_values(["a", "b", "c"])
    taken = column.take(np.array([2, 0]))
    assert list(taken.decode()) == ["c", "a"]
    assert taken.pool is column.pool
    masked = column.mask(np.array([True, False, True]))
    assert list(masked.decode()) == ["a", "c"]
    # filtering never re-pools: pool may be a superset of present values
    assert column.mask(np.array([True, False, False])).pool == column.pool


def test_recode_rejects_dropping_present_values():
    column = encode_values(["a", "b"])
    with pytest.raises(KeyError, match="present in column"):
        column.recode(("a",))
    # absent values may be dropped freely
    narrowed = column.mask(np.array([True, False])).recode(("a", "z"))
    assert list(narrowed.decode()) == ["a"]


def test_values_equal_is_pool_layout_independent():
    a = encode_values(["x", "y", None])
    b = CategoricalColumn(np.array([1, 0, -1], dtype=np.int32), ("y", "x"))
    assert a.values_equal(b)
    assert not a.values_equal(encode_values(["x", "x", None]))


def test_constructor_validates_codes_and_pool():
    with pytest.raises(ValueError, match="duplicate"):
        CategoricalColumn(np.array([0], dtype=np.int32), ("a", "a"))
    with pytest.raises(ValueError, match="out of range"):
        CategoricalColumn(np.array([2], dtype=np.int32), ("a", "b")[:1])
    with pytest.raises(ValueError, match="1-d"):
        CategoricalColumn(np.zeros((2, 2), dtype=np.int32), ("a",))


def test_pool_strings_are_interned():
    column = encode_values(["ab" + "c", "abc"])
    import sys

    assert column.pool[0] is sys.intern("abc")
