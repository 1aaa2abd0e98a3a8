"""Property tests of each incremental reuse path in isolation.

Hypothesis generates random parent->child table edits — category
flips, imputations, outlier clamps — and each property pins one reuse
path to its cold counterpart: the categorical check against a scalar
oracle, reused featurisation against a cold featurise, booster presort
sharing against the unscoped fit, and kNN and logistic fits (which
consult no scope) against the same fits outside one, byte for byte.
Settings are derandomized so tier-1 runs are reproducible.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import (
    GradientBoostedTreesClassifier,
    KNearestNeighborsClassifier,
    LogisticRegressionClassifier,
    incremental,
)
from repro.ml.tree import presort_orders
from repro.tabular import Table
from repro.testing.strategies import DELTA_EDIT_KINDS, version_cases

SETTINGS = settings(max_examples=50, deadline=None, derandomize=True)


# -- the categorical check ------------------------------------------------


@SETTINGS
@given(case=version_cases(edit_kinds=DELTA_EDIT_KINDS, allow_missing=True))
def test_version_delta_matches_categorical_oracle(case):
    """True exactly when no categorical cell of train or test changed
    (missing equals missing); numeric edits never matter."""
    categorical_changed = any(
        name.startswith("cat_")
        for pair in (case.train, case.test)
        for _, name in pair.changed_cells
    )
    assert incremental.version_delta(
        case.train.parent, case.test.parent, case.train.child, case.test.child
    ) == (not categorical_changed)


def test_table_delta_declines_on_misaligned_tables():
    """Tables that differ in row count, column names or column kinds
    are never aligned, whichever side is the train or the test table."""
    parent = Table.from_columns({"x": [1.0, 2.0], "c": ["a", "b"]})
    fewer_rows = Table.from_columns({"x": [1.0], "c": ["a"]})
    renamed = Table.from_columns({"y": [1.0, 2.0], "c": ["a", "b"]})
    kind_change = Table.from_columns({"x": ["1", "2"], "c": ["a", "b"]})
    assert incremental.version_delta(parent, parent, parent, parent)
    for other in (fewer_rows, renamed, kind_change):
        assert not incremental.version_delta(parent, parent, other, parent)
        assert not incremental.version_delta(parent, parent, parent, other)


# -- incremental featurisation -------------------------------------------


@SETTINGS
@given(case=version_cases())
def test_incremental_featurize_is_byte_identical_or_declines(case):
    parent = incremental.featurize_version(None, case.train.parent, case.test.parent)
    if not incremental.version_delta(
        case.train.parent, case.test.parent, case.train.child, case.test.child
    ):
        return  # the runner reuses no block across a categorical change
    patched = incremental.incremental_featurize(
        None, parent, case.train.child, case.test.child
    )
    if patched is None:
        return  # declined; the runner falls back to the cold path
    cold = incremental.featurize_version(None, case.train.child, case.test.child)
    assert patched.X_train.tobytes() == cold.X_train.tobytes()
    assert patched.X_test.tobytes() == cold.X_test.tobytes()
    assert patched.numeric_width == cold.numeric_width


def test_incremental_featurize_declines_on_new_category():
    parent_train = Table.from_columns({"x": [0.0, 1.0], "c": ["a", "b"]})
    child_train = Table.from_columns({"x": [0.0, 1.0], "c": ["a", "zzz"]})
    test = Table.from_columns({"x": [0.5], "c": ["a"]})
    assert not incremental.version_delta(parent_train, test, child_train, test)


# -- the reuse scope ------------------------------------------------------


@SETTINGS
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_fingerprints_are_content_addressed(seed):
    rng = np.random.default_rng(seed)
    scope = incremental.ReuseScope()
    array = rng.normal(size=(7, 3))
    twin = array.copy()
    other = array.copy()
    other[0, 0] += 1.0
    assert scope.fingerprint(array) == scope.fingerprint(twin)
    assert scope.fingerprint(array) != scope.fingerprint(other)
    assert scope.fingerprint(array) != scope.fingerprint(array.astype(np.float32))


def test_memo_hits_return_the_cached_object_and_count():
    scope = incremental.ReuseScope()
    a = np.arange(6, dtype=np.float64)
    first = scope.memo("demo", (a,), (), lambda: {"value": 1})
    second = scope.memo("demo", (a.copy(),), (), lambda: {"value": 2})
    assert second is first
    assert scope.counts() == {"demo": {"hits": 1, "misses": 1}}
    assert scope.hits() == 1


# -- scoped estimator fast paths ------------------------------------------


@SETTINGS
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_knn_scope_is_byte_identical(seed):
    """kNN consults no scope: fits inside one are bit-identical to the
    cold fit and leave the scope's counters empty."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(40, 4))
    y = (rng.random(40) > 0.5).astype(np.int64)
    X_test = rng.normal(size=(12, 4))
    cold = KNearestNeighborsClassifier(n_neighbors=5).fit(X, y).predict_proba(X_test)
    scope = incremental.ReuseScope()
    with incremental.reuse_scope(scope):
        first = (
            KNearestNeighborsClassifier(n_neighbors=5).fit(X, y).predict_proba(X_test)
        )
        second = (
            KNearestNeighborsClassifier(n_neighbors=5)
            .fit(X.copy(), y)
            .predict_proba(X_test.copy())
        )
    assert first.tobytes() == cold.tobytes()
    assert second.tobytes() == cold.tobytes()
    assert scope.counts() == {}


@SETTINGS
@given(seed=st.integers(min_value=0, max_value=2**12))
def test_logistic_warm_start_predictions_match_cold(seed):
    """Logistic fits always start cold: a parent fit followed by a
    repaired child fit inside one scope is bit-identical to the same
    child fit outside it — ``coef_``, ``intercept_`` and predictions —
    and the scope's counters stay empty."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(60, 4))
    y = (X[:, 0] + 0.5 * rng.normal(size=60) > 0).astype(np.int64)
    child_X = X.copy()
    child_X[:3] += 0.1  # a small repair-sized perturbation
    X_test = rng.normal(size=(20, 4))
    cold = LogisticRegressionClassifier(C=1.0).fit(child_X, y)
    scope = incremental.ReuseScope()
    with incremental.reuse_scope(scope):
        LogisticRegressionClassifier(C=1.0).fit(X, y)  # the parent fit
        scoped = LogisticRegressionClassifier(C=1.0).fit(child_X, y)
        scoped_predictions = scoped.predict(X_test)
    assert scoped.coef_.tobytes() == cold.coef_.tobytes()
    assert scoped.intercept_ == cold.intercept_
    assert scoped_predictions.tobytes() == cold.predict(X_test).tobytes()
    assert scope.counts() == {}


@SETTINGS
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_boosting_scope_is_byte_identical(seed):
    rng = np.random.default_rng(seed)
    # a coarse value grid forces argsort ties, exercising stability
    X = rng.choice([-1.0, 0.0, 0.5, 2.0], size=(50, 3))
    y = (rng.random(50) > 0.5).astype(np.int64)
    X_test = rng.choice([-1.0, 0.25, 2.0], size=(15, 3))
    params = dict(n_estimators=5, max_depth=2)
    cold = (
        GradientBoostedTreesClassifier(**params).fit(X, y).predict_proba(X_test)
    )
    scope = incremental.ReuseScope()
    with incremental.reuse_scope(scope):
        first = (
            GradientBoostedTreesClassifier(**params).fit(X, y).predict_proba(X_test)
        )
        second = (
            GradientBoostedTreesClassifier(**params)
            .fit(X.copy(), y)
            .predict_proba(X_test)
        )
    assert first.tobytes() == cold.tobytes()
    assert second.tobytes() == cold.tobytes()
    # one presort per fit, second fit served from the memo
    assert scope.stats["tree_presort"] == [1, 1]


@SETTINGS
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_presort_orders_match_per_round_argsorts(seed):
    rng = np.random.default_rng(seed)
    X = rng.choice([-3.0, 0.0, 0.0, 1.0, 4.0], size=(30, 4))
    orders = presort_orders(X)
    for feature in range(X.shape[1]):
        expected = np.argsort(X[:, feature], kind="mergesort")
        assert np.array_equal(orders[feature], expected)


def test_scope_is_inert_outside_runner():
    assert incremental.active() is None
    scope = incremental.ReuseScope()
    with incremental.reuse_scope(scope):
        assert incremental.active() is scope
        inner = incremental.ReuseScope()
        with incremental.reuse_scope(inner):
            assert incremental.active() is inner
        assert incremental.active() is scope
    assert incremental.active() is None
