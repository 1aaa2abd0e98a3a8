"""Tracing-overhead benchmark: the observability tax must stay small.

Runs the same small serial study (german / mislabels at smoke scale)
with tracing off and on — the traced arm writes the runner's spans,
per-cell heartbeat events and counters — in-memory store either way,
and records the wall-clock overhead fraction
in ``BENCH_obs.json`` at the repo root. The design target is < 3% overhead; the check is a *soft* one (a
``UserWarning``, not a failure) because a noisy shared box can swing a
sub-second study by more than that, and the artifact's trajectory
across commits is the real signal. Set ``REPRO_OBS_OVERHEAD_ENFORCE=1``
(the CI smoke gate does) to turn the warning into a hard failure.

The post-processing surfaces are timed too: Chrome-trace export and
cross-run diff of the traced study's sidecar, recorded as absolute
seconds in the artifact so a super-linear regression in either shows
up in its trajectory.

Also pins the truly hard part of the contract: with tracing disabled,
span entry costs one attribute lookup — measured here per no-op span
so a regression that starts allocating on the disabled path shows up
immediately.

Run with ``pytest benchmarks/bench_obs_overhead.py --benchmark-only``.
"""

from __future__ import annotations

import json
import os
import time
import warnings
from pathlib import Path

from repro import ExperimentRunner, StudyConfig, obs
from repro.benchmark import ResultStore
from repro.datasets import load_dataset

ARTIFACT = Path(__file__).parent.parent / "BENCH_obs.json"

#: Soft overhead budget for traced vs untraced study wall clock.
OVERHEAD_TARGET = 0.03

OVERHEAD_CONFIG = StudyConfig(
    n_sample=300,
    n_repetitions=2,
    models=("log_reg",),
    dataset_sizes={"german": 600},
)


def _merge_artifact(update: dict) -> None:
    payload = json.loads(ARTIFACT.read_text()) if ARTIFACT.exists() else {}
    payload.update(update)
    payload["cpu_count"] = os.cpu_count()
    payload["overhead_target"] = OVERHEAD_TARGET
    ARTIFACT.write_text(json.dumps(payload, indent=2) + "\n")


def _run_study(trace_path) -> float:
    """One serial smoke study; returns wall seconds."""
    seconds, _store = _run_study_with_store(trace_path)
    return seconds


def _run_study_with_store(trace_path) -> tuple[float, ResultStore]:
    definition, table = load_dataset("german", n_rows=600, seed=0)
    store = ResultStore()
    runner = ExperimentRunner(OVERHEAD_CONFIG, store)
    started = time.perf_counter()
    if trace_path is not None:
        with obs.scoped(trace_path):
            for repetition in range(OVERHEAD_CONFIG.n_repetitions):
                runner.run_repetition_cells(
                    definition, table, "mislabels", repetition, [("log_reg", 0)]
                )
    else:
        for repetition in range(OVERHEAD_CONFIG.n_repetitions):
            runner.run_repetition_cells(
                definition, table, "mislabels", repetition, [("log_reg", 0)]
            )
    seconds = time.perf_counter() - started
    assert len(store) == OVERHEAD_CONFIG.n_repetitions
    return seconds, store


def test_tracing_overhead(tmp_path):
    """Traced vs untraced study wall clock (best-of-3 each, interleaved
    so machine drift hits both arms equally)."""
    _run_study(None)  # warm the dataset and featurizer code paths
    untraced: list[float] = []
    traced: list[float] = []
    for round_index in range(3):
        untraced.append(_run_study(None))
        traced.append(_run_study(tmp_path / f"bench-{round_index}.trace.jsonl"))
    overhead = min(traced) / min(untraced) - 1.0
    within = overhead < OVERHEAD_TARGET
    message = (
        f"tracing overhead {overhead:.1%} exceeds the "
        f"{OVERHEAD_TARGET:.0%} target (noisy box or a regression?)"
    )
    _merge_artifact(
        {
            "study_overhead": {
                "untraced_s": min(untraced),
                "traced_s": min(traced),
                "overhead_fraction": overhead,
                "within_target": within,
            }
        }
    )
    if not within:
        if os.environ.get("REPRO_OBS_OVERHEAD_ENFORCE"):
            raise AssertionError(message)
        warnings.warn(message, stacklevel=1)


def test_export_and_diff_timings(tmp_path):
    """Time the telemetry post-processing surfaces over a real trace.

    Both read the same sidecar a traced study writes; export also pays
    JSON re-serialisation, diff pays two health folds. Absolute
    seconds are recorded (not a ratio — there is no untraced arm to
    compare against) so their trajectory across commits is the gate.
    """
    from repro.obs import diff_stores, export_trace

    trace_path = tmp_path / "bench.trace.jsonl"
    _run_study(trace_path)
    n_bytes = trace_path.stat().st_size

    started = time.perf_counter()
    n_events = export_trace([trace_path], tmp_path / "bench.chrome.json")
    export_seconds = time.perf_counter() - started
    assert n_events > 0

    started = time.perf_counter()
    diff = diff_stores([trace_path], [trace_path])
    diff_seconds = time.perf_counter() - started
    assert diff.entries and not diff.flagged  # self-diff is quiet

    _merge_artifact(
        {
            "postprocessing": {
                "trace_bytes": n_bytes,
                "export_events": n_events,
                "export_s": export_seconds,
                "diff_quantities": len(diff.entries),
                "diff_s": diff_seconds,
            }
        }
    )


def test_fairness_audit_timing(tmp_path):
    """Time the fairness surfaces the observatory added.

    Fairness is read from the store's records, never from the trace;
    this pins that path — folding a store into a
    :class:`FairnessAudit` and self-diffing it (the obs-audit hot
    path) — as absolute seconds in the artifact.
    """
    from repro.obs import build_audit, diff_audits

    trace_path = tmp_path / "bench.trace.jsonl"
    _seconds, store = _run_study_with_store(trace_path)

    started = time.perf_counter()
    audit = build_audit(store)
    audit_seconds = time.perf_counter() - started
    assert audit.n_records == len(store)

    started = time.perf_counter()
    diff = diff_audits(audit, audit)
    diff_seconds = time.perf_counter() - started
    assert diff.regressions == []  # self-diff is always clean

    _merge_artifact(
        {
            "fairness": {
                "audit_s": audit_seconds,
                "self_diff_s": diff_seconds,
            }
        }
    )


def test_disabled_span_fast_path(benchmark):
    """A disabled span must stay at no-op cost (no sink, no clock)."""
    assert not obs.is_enabled()

    def spin() -> int:
        total = 0
        for _ in range(1000):
            with obs.span("cell", model="log_reg"):
                total += 1
        return total

    assert benchmark(spin) == 1000
    per_span_ns = benchmark.stats.stats.mean / 1000 * 1e9
    _merge_artifact({"disabled_span_ns": per_span_ns})
