"""Runner scaling benchmarks: cell latency, backend sweeps, transport.

Measures, and appends to ``BENCH_runner.json`` at the repo root:

- the latency of one repetition cell — the work unit the parallel
  scheduler ships to workers;
- the wall clock of a small full study (german, all three error
  types) swept over ``workers`` 1→N for both executor backends
  (serial / process), with the peak RSS observed after each
  (backend, workers) point and a cross-backend byte-identity check of
  the resulting stores;
- the dataset *ship time* for one study round on a 2-worker pool
  under the pickle transport (the table is serialised into every
  task and deserialised in every worker) versus the shared-memory
  transport (publish once, then one zero-copy attach per worker —
  workers cache the attached table) — the cost the shm transport
  exists to remove.

Speedup from parallelism tracks the hardware: the artifact records
``cpu_count``, and wall-clock speedup > 1 is only asserted with ≥4
cores (on a single-core box the pool's process overhead makes the
parallel path *slower*; the transport comparison is hardware-
independent and is asserted everywhere).

Run with ``pytest benchmarks/bench_runner_scaling.py --benchmark-only``.
"""

from __future__ import annotations

import json
import os
import pickle
import resource
import time
from pathlib import Path

from repro import ExperimentRunner, StudyConfig
from repro.benchmark import (
    ExecutorOptions,
    ResultStore,
    attach_table,
    publish_table,
    run_parallel_study,
    shared_memory_available,
)
from repro.benchmark.transport import unlink_segments
from repro.datasets import load_dataset
from repro.testing.fixtures import store_fingerprint

ARTIFACT = Path(__file__).parent.parent / "BENCH_runner.json"

#: Small full-study config: every error type on german at smoke scale.
SCALING_CONFIG = StudyConfig(
    n_sample=300,
    n_repetitions=2,
    models=("log_reg",),
    dataset_sizes={"german": 600},
)

#: Upper end of the worker sweep (bounded so the bench stays cheap).
MAX_WORKERS = max(2, min(4, os.cpu_count() or 1))

#: Rows of the table used by the transport ship-time comparison —
#: large enough that serialisation cost dominates timer noise.
TRANSPORT_ROWS = 50_000

ERROR_TYPES = ("missing_values", "outliers", "mislabels")


def _merge_artifact(update: dict) -> None:
    payload = json.loads(ARTIFACT.read_text()) if ARTIFACT.exists() else {}
    payload.update(update)
    payload["cpu_count"] = os.cpu_count()
    payload["config"] = {
        "dataset": "german",
        "error_types": list(ERROR_TYPES),
        "n_sample": SCALING_CONFIG.n_sample,
        "n_repetitions": SCALING_CONFIG.n_repetitions,
        "models": list(SCALING_CONFIG.models),
    }
    ARTIFACT.write_text(json.dumps(payload, indent=2) + "\n")


def _peak_rss_kb() -> int:
    """Peak resident set of this process and its reaped children (KiB)."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )


def test_single_cell_latency(benchmark):
    """One (model, tuning_seed) cell incl. shared version preparation."""
    definition, table = load_dataset("german", n_rows=600, seed=0)

    def run_cell() -> int:
        store = ResultStore()
        runner = ExperimentRunner(SCALING_CONFIG, store)
        return runner.run_repetition_cells(
            definition, table, "mislabels", 0, [("log_reg", 0)]
        )

    added = benchmark(run_cell)
    assert added == 1
    _merge_artifact(
        {
            "single_cell": {
                "mean_s": benchmark.stats.stats.mean,
                "stddev_s": benchmark.stats.stats.stddev,
            }
        }
    )


def test_backend_worker_sweep(tmp_path):
    """Wall clock of the small full study, workers 1→N per backend."""

    def run_study(directory: Path, backend: str, workers: int) -> tuple[int, float]:
        store = ResultStore(directory / "study.json")
        options = ExecutorOptions(backend=backend)
        start = time.perf_counter()
        added = run_parallel_study(
            SCALING_CONFIG,
            store,
            workers=workers,
            datasets=("german",),
            error_types=ERROR_TYPES,
            options=options,
        )
        return added, time.perf_counter() - start

    sweeps: dict[str, dict] = {}
    fingerprints: dict[str, dict[str, bytes]] = {}
    records = None
    serial_s = None
    run_index = 0
    for backend in ("serial", "process"):
        worker_points = (1,) if backend == "serial" else tuple(
            range(1, MAX_WORKERS + 1)
        )
        points: dict[str, dict] = {}
        for workers in worker_points:
            directory = tmp_path / f"run{run_index}"
            run_index += 1
            added, elapsed = run_study(directory, backend, workers)
            assert added > 0
            records = added
            if backend == "serial":
                serial_s = elapsed
            point = {"wall_s": elapsed}
            if serial_s is not None:
                point["speedup_vs_serial"] = serial_s / elapsed
            # per (backend, workers); ru_maxrss is a process-lifetime
            # high-water mark, so within a sweep the value is monotone —
            # a point can only show growth caused at or before it
            point["peak_rss_kb"] = _peak_rss_kb()
            points[str(workers)] = point
            fingerprints.setdefault(
                backend, store_fingerprint(directory / "study.json")
            )
        sweeps[backend] = {"workers": points}
    byte_identical = fingerprints["serial"] == fingerprints["process"]
    assert byte_identical, "stores diverged across backends"
    _merge_artifact(
        {
            "scaling": {
                "records": records,
                "serial_s": serial_s,
                "backends": sweeps,
                "byte_identical_across_backends": byte_identical,
            }
        }
    )
    # wall-clock speedup is hardware-dependent; only assert where the
    # machine can actually run units concurrently
    if (os.cpu_count() or 1) >= 4:
        best = max(
            point["speedup_vs_serial"]
            for sweep in sweeps.values()
            for point in sweep["workers"].values()
        )
        assert best > 1.0


def test_transport_ship_time(benchmark):
    """Dataset ship cost for one study round: pickle vs shared memory.

    Models exactly what the executor pays per dataset: the pickle
    transport serialises the table into *every* task and deserialises
    it in *every* worker — ``error_types x n_repetitions`` round trips
    for the bench config — while the shm transport publishes the
    column blocks once and each worker attaches zero-copy views once
    (attaches are cached per worker process for the pool's lifetime).
    """
    assert shared_memory_available(), "shm transport unavailable on this box"
    _definition, table = load_dataset("german", n_rows=TRANSPORT_ROWS, seed=0)
    n_workers = 2
    n_tasks = len(ERROR_TYPES) * SCALING_CONFIG.n_repetitions

    start = time.perf_counter()
    for _ in range(n_tasks):
        payload = pickle.dumps(table, protocol=pickle.HIGHEST_PROTOCOL)
        shipped = pickle.loads(payload)
    pickle_s = time.perf_counter() - start
    assert shipped.n_rows == TRANSPORT_ROWS

    def shm_ship():
        ref, segments = publish_table(table)
        try:
            for _ in range(n_workers):
                attached, _handles = attach_table(ref)
            return attached
        finally:
            unlink_segments(segments)

    attached = benchmark(shm_ship)
    assert attached.n_rows == TRANSPORT_ROWS
    shm_s = benchmark.stats.stats.mean
    speedup = pickle_s / shm_s
    _merge_artifact(
        {
            "transport": {
                "rows": TRANSPORT_ROWS,
                "workers": n_workers,
                "tasks": n_tasks,
                "pickle_ship_s": pickle_s,
                "shm_ship_s": shm_s,
                "speedup": speedup,
            }
        }
    )
    assert speedup > 1.7, (
        f"shm transport should beat pickle shipping by >=1.7x, got {speedup:.2f}x"
    )
