"""The acceptance tests of the fault-injection harness.

For every injectable fault kind, a parallel study that crashes and is
retried/resumed must converge to a result store **byte-identical** to
the serial baseline, with zero integrity violations and no journal or
failure residue — the property the paper's study apparatus (like
CleanML's and FairPrep's) silently depends on.
"""

import pytest

from repro.benchmark import ResultStore, StudyAborted
from repro.testing import FAULT_KINDS, Fault, FaultPlan, FaultyExecutor
from repro.testing.fixtures import chaos_config

pytestmark = pytest.mark.chaos


#: Generous per-cell deadline: a real cell takes ~0.1 s, so legitimate
#: cells never trip the watchdog even under pool contention, while an
#: injected slow cell (sleeping slow_factor x this) reliably does.
CELL_TIMEOUT = 1.0


def plan_for(kind, repetition=0, at=0, attempts=1):
    return FaultPlan(
        faults=(
            Fault(
                kind=kind,
                dataset="german",
                error_type="mislabels",
                repetition=repetition,
                at=at,
                attempts=attempts,
            ),
        ),
        slow_factor=1.5,
    )


@pytest.mark.parametrize("kind", FAULT_KINDS)
def test_each_fault_kind_recovers_byte_identical(chaos_study, kind):
    """Killed-and-resumed under every fault kind == serial baseline."""
    plan = plan_for(kind)
    cell_timeout = CELL_TIMEOUT if kind == "slow_cell" else None
    added = chaos_study.run(plan=plan, workers=2, cell_timeout=cell_timeout)
    assert added == 2
    chaos_study.assert_converged()


@pytest.mark.parametrize("kind", ("crash_pre_append", "crash_post_append"))
def test_crash_recovers_in_process_executor(chaos_study, kind):
    """The workers=1 in-process path retries and recovers identically."""
    chaos_study.run(plan=plan_for(kind), workers=1)
    chaos_study.assert_converged()


def test_parent_kill_then_resume_converges(chaos_study):
    """A simulated parent kill leaves journal shards; a resume run
    recovers them without recomputation and converges."""
    with pytest.raises(StudyAborted):
        chaos_study.run(abort_after_units=1)
    # the compacted save never ran: the first unit lives only in its shard
    assert not chaos_study.store_path.exists()
    shards = list(chaos_study.store_path.parent.glob("chaos-study.*.jsonl"))
    assert shards, "journal shards should survive the kill"
    resumed = ResultStore(chaos_study.store_path)
    recovered = len(resumed)
    assert recovered >= 1
    added = chaos_study.resume()
    assert added == 2 - recovered
    chaos_study.assert_converged()


def test_kill_under_faults_then_resume_converges(chaos_study):
    """Faults and a parent kill in the same run still converge."""
    plan = plan_for("crash_post_append", repetition=1)
    with pytest.raises(StudyAborted):
        chaos_study.run(plan=plan, workers=1, abort_after_units=1)
    chaos_study.resume()
    chaos_study.assert_converged()


def test_crash_post_append_records_recovered_not_recomputed(chaos_study):
    """After a post-append crash the journaled record is recovered from
    the shard: the retried unit plans no pending cells for it."""
    plan = plan_for("crash_post_append", attempts=1)
    progress_lines = []
    executor = FaultyExecutor(plan=plan, max_retries=2)
    store = ResultStore(chaos_study.store_path)
    executor.run(
        chaos_study.config,
        store,
        workers=1,
        datasets=("german",),
        error_types=("mislabels",),
        progress=progress_lines.append,
    )
    assert any("recovered from journal" in line for line in progress_lines)
    chaos_study.assert_converged()


def test_poisoned_unit_does_not_abort_study(chaos_study):
    """A unit that keeps failing is poisoned into the sidecar while the
    rest of the study completes; a later clean run heals it."""
    plan = plan_for("transient_error", attempts=99)
    added = chaos_study.run(plan=plan, workers=2, max_retries=1)
    assert added == 1  # repetition 1 completed, repetition 0 poisoned
    store = chaos_study.store()
    failures = store.failures_path
    assert failures.exists()
    violations = store.verify()
    assert any("poisoned" in violation for violation in violations)
    # the resume completes the poisoned unit and clears the sidecar
    assert chaos_study.resume() == 1
    chaos_study.assert_converged()


def test_fsync_journal_run_converges(chaos_study):
    """The durable-journal option changes nothing about the results."""
    chaos_study.run(
        plan=plan_for("crash_post_append"), workers=2, fsync_journal=True
    )
    chaos_study.assert_converged()


def test_scheduled_plan_is_deterministic(chaos_study):
    """FaultPlan.scheduled is a pure function of seed and coordinates."""
    units = chaos_study.unit_coords
    assert FaultPlan.scheduled(7, units) == FaultPlan.scheduled(7, units)
    seeds = [FaultPlan.scheduled(seed, units) for seed in range(20)]
    assert any(plan.faults for plan in seeds), "no seed scheduled any fault"


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(6))
def test_randomized_fault_sweep_converges(tmp_path, seed):
    """Seeded pseudo-random plans over all units always converge."""
    from repro.testing.fixtures import ChaosStudy

    study = ChaosStudy(tmp_path, config=chaos_config())
    plan = FaultPlan.scheduled(
        seed, study.unit_coords, rate=0.9, attempts=2, slow_factor=1.5
    )
    study.run(plan=plan, workers=2, cell_timeout=CELL_TIMEOUT, max_retries=3)
    study.assert_converged()
