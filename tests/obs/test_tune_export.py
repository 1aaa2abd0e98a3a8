"""Grid-search timing export: fast and naive paths report comparably.

Satellite of the observability issue: ``cv_results_`` has carried
per-candidate ``fit_seconds`` / ``score_seconds`` since the shared-
computation kernels landed, but nothing exported them. The ``tune``
span now does; these tests pin that both dispatch routes export the
same shape of data — same candidate count, positive totals bounded by
the search's wall time — so a regression in either path's bookkeeping
shows up as a divergence here.
"""

import time

import numpy as np
import pytest

from repro import obs
from repro.ml.knn import KNearestNeighborsClassifier
from repro.ml.model_selection import GridSearchCV
from repro.obs import build_health, read_trace_events


@pytest.fixture()
def data():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(120, 4))
    y = (X[:, 0] + 0.3 * rng.normal(size=120) > 0).astype(np.int64)
    return X, y


GRID = {"n_neighbors": [1, 3, 5, 7]}


def tuned_search(tmp_path, data, use_fast_path):
    X, y = data
    path = tmp_path / f"tune-{use_fast_path}.jsonl"
    search = GridSearchCV(
        KNearestNeighborsClassifier(),
        GRID,
        n_splits=3,
        use_fast_path=use_fast_path,
    )
    started = time.perf_counter()
    with obs.scoped(path):
        search.fit(X, y)
    wall = time.perf_counter() - started
    events = read_trace_events([path])
    (tune,) = [e for e in events if e.get("name") == "tune"]
    return search, tune, wall


def test_both_paths_export_comparable_phase_totals(tmp_path, data):
    fast_search, fast, fast_wall = tuned_search(tmp_path, data, True)
    naive_search, naive, naive_wall = tuned_search(tmp_path, data, False)
    assert fast_search.used_fast_path_ and not naive_search.used_fast_path_
    assert fast["attrs"]["fast_path"] is True
    assert naive["attrs"]["fast_path"] is False
    for tune, wall in ((fast, fast_wall), (naive, naive_wall)):
        assert tune["attrs"]["n_candidates"] == 4
        assert tune["attrs"]["model"] == "KNearestNeighborsClassifier"
        fit = tune["counters"]["fit_seconds"]
        score = tune["counters"]["score_seconds"]
        assert fit > 0.0 and score > 0.0
        # exported totals are real time actually spent inside the search
        assert fit + score <= wall
        assert tune["seconds"] <= wall
    # both routes select identical hyperparameters and scores
    assert fast_search.best_params_ == naive_search.best_params_
    assert fast_search.best_score_ == naive_search.best_score_


def test_health_tallies_dispatch_routes(tmp_path, data):
    _, fast, __ = tuned_search(tmp_path, data, True)
    _, naive, __ = tuned_search(tmp_path, data, False)
    health = build_health([fast, naive])
    assert health.tuning["fast_path"] == 1
    assert health.tuning["naive"] == 1
    assert health.tuning["fit_seconds"] == pytest.approx(
        fast["counters"]["fit_seconds"] + naive["counters"]["fit_seconds"]
    )


def test_untraced_fit_exports_nothing_and_stays_identical(data):
    X, y = data
    traced_off = GridSearchCV(KNearestNeighborsClassifier(), GRID, n_splits=3)
    traced_off.fit(X, y)
    assert traced_off.best_params_ is not None
    assert not obs.is_enabled()
