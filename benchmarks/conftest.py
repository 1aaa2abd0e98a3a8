"""Shared fixtures for the paper-artifact benchmarks.

The RQ2 benches read a shared, resumable result store
(``benchmarks/_results/study.json``). If the store is missing runs for
an error type, the fixture populates them on first use (this is the
expensive part — roughly an hour of serial laptop compute for the
full study — and happens only once thanks to the store's resume
capability). Set ``REPRO_BENCH_WORKERS=N`` to shard the population
across N worker processes (the sharded executor journals completed
records to JSONL shards, so even a killed populate run resumes, and
the resulting store is byte-identical to a serial one). Rendered
tables are also written to ``benchmarks/_results/*.txt``.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from repro import StudyConfig
from repro.benchmark import ResultStore, run_parallel_study
from repro.datasets import DATASET_NAMES, dataset_definition

RESULTS_DIR = Path(__file__).parent / "_results"
STORE_PATH = RESULTS_DIR / "study.json"

#: Worker processes used to populate the store (1 = serial in-process).
BENCH_WORKERS = int(os.environ.get("REPRO_BENCH_WORKERS", "1"))

#: The committed store's scales, per error type (also used by
#: ``benchmarks/_run_study.py``, which builds the store up front).
STUDY_CONFIGS = {
    "missing_values": StudyConfig(n_sample=3_000, test_fraction=0.4, n_repetitions=12),
    "mislabels": StudyConfig(n_sample=3_000, test_fraction=0.4, n_repetitions=12),
    "outliers": StudyConfig(n_sample=3_000, test_fraction=0.4, n_repetitions=8),
}

#: Dataset sizes used for the RQ1 disparity figures.
DISPARITY_SIZES = {
    "adult": 6_000,
    "folk": 8_000,
    "credit": 8_000,
    "german": 1_000,
    "heart": 8_000,
}


def ensure_error_type(
    store: ResultStore, error_type: str, workers: int = BENCH_WORKERS
) -> None:
    """Populate any missing runs for one error type (resumable)."""
    run_parallel_study(
        STUDY_CONFIGS[error_type],
        store,
        workers=workers,
        error_types=(error_type,),
    )


def map_parallel(fn, items, workers: int = BENCH_WORKERS) -> list:
    """Map a picklable function over ``items``, order preserved.

    Runs in-process when ``REPRO_BENCH_WORKERS`` (or ``workers``) is 1;
    otherwise shards across a process pool. Used by benches whose work
    items are independent (e.g. the per-model identity sweeps of
    ``bench_model_selection.py``).
    """
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=min(workers, len(items))) as pool:
        return list(pool.map(fn, items))


@pytest.fixture(scope="session")
def study_store() -> ResultStore:
    """The shared result store, populated for all three error types."""
    RESULTS_DIR.mkdir(exist_ok=True)
    store = ResultStore(STORE_PATH)
    for error_type in ("missing_values", "outliers", "mislabels"):
        ensure_error_type(store, error_type)
    return store


@pytest.fixture(scope="session")
def disparity_tables():
    """Generated tables for the RQ1 analysis, keyed by dataset name."""
    return {
        name: (
            dataset_definition(name),
            dataset_definition(name).generate(
                n_rows=DISPARITY_SIZES[name], seed=0
            ),
        )
        for name in DATASET_NAMES
    }


def save_artifact(name: str, text: str) -> None:
    """Persist a rendered table/figure alongside the result store."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / name).write_text(text + "\n")
    print()
    print(text)
