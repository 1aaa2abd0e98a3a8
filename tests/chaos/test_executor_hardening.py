"""Tests for the executor's retry, backoff, timeout and poison plumbing."""

import time

import pytest

from repro.benchmark import CellTimeoutError, ExecutorOptions, backoff_delay
from repro.benchmark.parallel import _cell_deadline, _replan_unit, WorkUnit
from repro.benchmark import ResultStore, RunRecord, StudyConfig
from repro.benchmark.parallel import BACKOFF_CAP, expected_cell_keys

pytestmark = pytest.mark.chaos


# -- options validation --------------------------------------------------


def test_options_reject_negative_max_retries():
    with pytest.raises(ValueError, match="max_retries"):
        ExecutorOptions(max_retries=-1)


def test_options_reject_non_positive_cell_timeout():
    with pytest.raises(ValueError, match="cell_timeout"):
        ExecutorOptions(cell_timeout=0)
    with pytest.raises(ValueError, match="cell_timeout"):
        ExecutorOptions(cell_timeout=-2.5)


def test_options_reject_bad_abort_point():
    with pytest.raises(ValueError, match="abort_after_units"):
        ExecutorOptions(abort_after_units=0)


def test_options_reject_negative_backoff():
    with pytest.raises(ValueError, match="backoff"):
        ExecutorOptions(backoff_base=-0.1)


# -- seeded backoff ------------------------------------------------------


def test_backoff_is_deterministic_and_capped():
    options = ExecutorOptions(backoff_base=0.1)
    coords = ("german", "mislabels", 0)
    delays = [backoff_delay(options, coords, attempt) for attempt in (1, 2, 3, 9)]
    assert delays == [
        backoff_delay(options, coords, attempt) for attempt in (1, 2, 3, 9)
    ]
    # jitter keeps every delay within [0.5, 1.5) of the raw schedule
    for attempt, delay in zip((1, 2, 3, 9), delays):
        raw = min(BACKOFF_CAP, 0.1 * 2 ** (attempt - 1))
        assert raw * 0.5 <= delay < raw * 1.5
    assert 0.1 * 2**8 > BACKOFF_CAP  # attempt 9 runs into the cap
    # distinct units get distinct jitter
    other = backoff_delay(options, ("german", "mislabels", 1), 1)
    assert other != delays[0]


def test_backoff_zero_base_never_sleeps():
    options = ExecutorOptions(backoff_base=0.0)
    assert backoff_delay(options, ("a", "b", 0), 5) == 0.0


# -- per-cell deadline ---------------------------------------------------


def test_cell_deadline_interrupts_hung_cell():
    with pytest.raises(CellTimeoutError, match="deadline"):
        with _cell_deadline(0.05):
            time.sleep(5.0)


def test_cell_deadline_disarms_after_fast_cell():
    with _cell_deadline(0.05):
        pass
    time.sleep(0.08)  # a stale alarm would fire here and kill the test


def test_cell_deadline_none_is_noop():
    with _cell_deadline(None):
        pass


# -- unit replanning -----------------------------------------------------


def _record_for(key: str) -> RunRecord:
    dataset, error_type, detection, repair, model, rep, seed = key.split("/")
    return RunRecord(
        dataset=dataset,
        error_type=error_type,
        detection=detection,
        repair=repair,
        model=model,
        repetition=int(rep.removeprefix("rep")),
        tuning_seed=int(seed.removeprefix("seed")),
        metrics={"dirty_test_acc": 0.5},
    )


def test_replan_drops_recovered_cells():
    config = StudyConfig(
        n_sample=300, models=("log_reg", "knn"), dataset_sizes={"german": 600}
    )
    unit = WorkUnit(
        dataset="german",
        error_type="mislabels",
        repetition=0,
        cells=(("log_reg", 0), ("knn", 0)),
    )
    store = ResultStore()
    # simulate the journal recovery of the log_reg cell's single record
    for key in expected_cell_keys("german", "mislabels", 0, "log_reg", 0):
        store.add(_record_for(key))
    replanned = _replan_unit(config, store, unit)
    assert replanned.cells == (("knn", 0),)
    assert set(replanned.done_keys) == set(
        expected_cell_keys("german", "mislabels", 0, "log_reg", 0)
    )


def test_replan_returns_none_when_everything_recovered():
    config = StudyConfig(n_sample=300, models=("log_reg",))
    unit = WorkUnit(
        dataset="german",
        error_type="mislabels",
        repetition=0,
        cells=(("log_reg", 0),),
    )
    store = ResultStore()
    for key in expected_cell_keys("german", "mislabels", 0, "log_reg", 0):
        store.add(_record_for(key))
    assert _replan_unit(config, store, unit) is None
