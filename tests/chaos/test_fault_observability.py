"""Observed-fault accounting: the trace must agree with the schedule.

The chaos suite previously trusted that a :class:`FaultPlan` fired
what it scheduled. With fault firings now emitted as ``fault_injected``
trace events — flushed by the worker's trace scope even when the fault
is a crash — these tests tighten that to an *observed* property: the
compacted trace reports exactly the scheduled number of firings, and
tracing a chaos run changes nothing about its byte-identical recovery.
"""

import pytest

from repro.benchmark import ResultStore
from repro.obs import scan_run
from repro.testing import Fault, FaultPlan, FaultyExecutor
from repro.testing.fixtures import chaos_config

pytestmark = pytest.mark.chaos


def plan_for(kind, repetition=0, attempts=1):
    return FaultPlan(
        faults=(
            Fault(
                kind=kind,
                dataset="german",
                error_type="mislabels",
                repetition=repetition,
                attempts=attempts,
            ),
        ),
        slow_factor=1.5,
    )


@pytest.mark.parametrize(
    "kind, expect_retry",
    [
        # the record is lost before the append: the unit must be re-run
        ("crash_pre_append", True),
        ("transient_error", True),
        # the record survives in the journal shard: the parent replays
        # it and the unit completes with no retry at all
        ("crash_post_append", False),
    ],
)
def test_traced_chaos_run_observes_each_scheduled_firing(
    chaos_study, kind, expect_retry
):
    """One fault, one firing observed, recovery route recorded, and a
    store still byte-identical to the baseline."""
    added = chaos_study.run(plan=plan_for(kind), workers=2, trace=True)
    assert added == 2
    chaos_study.assert_converged()
    store = chaos_study.store()
    assert store.trace_path.exists()
    # worker trace shards were compacted away with the journal shards
    assert store.trace_paths() == [store.trace_path]
    health = store.health()
    assert health.faults == {kind: 1}
    assert health.retries == (1 if expect_retry else 0)
    assert health.recovered == (0 if expect_retry else 1)
    assert health.poisoned == 0


def test_multi_attempt_fault_observed_once_per_attempt(chaos_study):
    """A fault scheduled for 2 attempt windows fires twice and is
    observed twice; the third attempt succeeds."""
    chaos_study.run(
        plan=plan_for("transient_error", attempts=2),
        workers=2,
        max_retries=2,
        trace=True,
    )
    chaos_study.assert_converged()
    health = chaos_study.store().health()
    assert health.faults == {"transient_error": 2}
    assert health.retries == 2


def test_poisoned_unit_firings_and_sidecar_both_observed(chaos_study):
    """Exhausting retries: every attempt's firing is observed, and the
    health report counts the poisoned unit once although both the
    ``poison`` event and the sidecar name it."""
    plan = plan_for("transient_error", repetition=1, attempts=99)
    added = chaos_study.run(plan=plan, workers=2, max_retries=1, trace=True)
    assert added == 1  # the healthy repetition
    store = chaos_study.store()
    failures = store.failures_path
    assert failures is not None and failures.exists()
    health = store.health()
    # max_retries=1 -> attempts 0 and 1 both fire before poisoning
    assert health.faults == {"transient_error": 2}
    assert health.retries == 1
    assert health.poisoned == 1
    assert len(health.failures) == 1
    assert health.failures[0]["repetition"] == 1


def test_report_and_monitor_count_a_poisoned_unit_once(tmp_path):
    """``ResultStore.health`` and the live read behind ``obs-report``
    (``scan_run``) are the same fold, so a serial traced run that
    poisons one unit reports it once in both."""
    plan = FaultPlan(
        (Fault("transient_error", "german", "mislabels", 0, attempts=99),)
    )
    store_path = tmp_path / "chaos.json"
    added = FaultyExecutor(plan, max_retries=1, backoff_base=0.0, trace=True).run(
        chaos_config(),
        ResultStore(store_path),
        workers=1,
        datasets=("german",),
        error_types=("mislabels",),
    )
    assert added == 1  # the healthy repetition
    assert ResultStore(store_path).health().poisoned == 1
    live = scan_run(store_path)
    assert (live.poisoned, live.cells_poisoned, live.complete) == (1, 1, True)


def test_untraced_chaos_run_leaves_no_trace_files(chaos_study):
    chaos_study.run(plan=plan_for("transient_error"), workers=2)
    chaos_study.assert_converged()
    store = chaos_study.store()
    assert store.trace_paths() == []
    assert list(chaos_study.root.glob("*.trace.*")) == []
