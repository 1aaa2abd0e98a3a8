"""The ``chaos_study`` pytest fixture and its driver class.

A :class:`ChaosStudy` wires a tiny-but-real study (german / mislabels
by default: every cell trains and evaluates actual models) to the
fault-injection machinery, and provides the one assertion the chaos
suite is built around: a study executed under faults — killed, retried
and resumed — must converge to a result store **byte-identical** to
the serial baseline, with :meth:`repro.benchmark.ResultStore.verify`
reporting zero integrity violations.

Serial baselines are memoized per configuration at module level, so a
suite full of fault scenarios pays for each baseline once.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import pytest

from repro.benchmark import (
    ExecutorOptions,
    ExperimentRunner,
    ResultStore,
    StudyConfig,
    run_parallel_study,
)
from repro.datasets import load_dataset
from repro.testing.faults import FaultPlan


def chaos_config(**overrides) -> StudyConfig:
    """The chaos suite's default tiny-but-real study configuration."""
    defaults = dict(
        n_sample=300,
        n_repetitions=2,
        models=("log_reg",),
        dataset_sizes={"german": 600},
    )
    defaults.update(overrides)
    return StudyConfig(**defaults)


def store_fingerprint(path: Path) -> dict[str, bytes]:
    """Full on-disk identity of a sharded store.

    Maps the manifest file name and every shard file (relative to the
    store directory) to its exact bytes. Two stores with equal
    fingerprints are bit-for-bit interchangeable — the strongest form
    of the byte-identity guarantee, covering the compressed shard
    payloads and not just the manifest that checksums them.
    """
    fingerprint = {"<manifest>": path.read_bytes()}
    store_dir = path.parent / f"{path.stem}.store"
    if store_dir.exists():
        for shard in sorted(store_dir.glob("*.jsonl.gz")):
            fingerprint[shard.name] = shard.read_bytes()
    return fingerprint


#: Serial baseline fingerprints memoized by (config, datasets, error_types).
_BASELINE_CACHE: dict[tuple, dict[str, bytes]] = {}


def serial_baseline_fingerprint(
    config: StudyConfig,
    datasets: Sequence[str],
    error_types: Sequence[str],
    workdir: Path,
) -> dict[str, bytes]:
    """Fingerprint of a serially-executed, compacted study store.

    An independent reference for the executor: a plain loop over
    :meth:`ExperimentRunner.run_repetition_cells` for every repetition
    and cell, into a plain store saved once — no planner, shard store,
    journal or merge step of :func:`run_parallel_study` involved.
    """
    key = (
        repr(config),
        tuple(datasets),
        tuple(error_types),
    )
    if key not in _BASELINE_CACHE:
        path = workdir / "serial-baseline.json"
        store = ResultStore(path)
        runner = ExperimentRunner(config, store)
        cells = [
            (model, seed)
            for model in config.models
            for seed in range(config.n_tuning_seeds)
        ]
        for error_type in error_types:
            for dataset in datasets:
                definition, table = load_dataset(
                    dataset,
                    n_rows=config.dataset_size(dataset),
                    seed=config.generation_seed,
                )
                for repetition in range(config.n_repetitions):
                    runner.run_repetition_cells(
                        definition, table, error_type, repetition, cells
                    )
        store.save()
        _BASELINE_CACHE[key] = store_fingerprint(path)
    return _BASELINE_CACHE[key]


class ChaosStudy:
    """Drives one study under fault injection and checks convergence.

    Attributes:
        config: Study configuration shared by baseline and chaos runs.
        datasets / error_types: The study slice under test.
        store_path: The chaos run's store file inside the test's tmp
            directory.
    """

    def __init__(
        self,
        root: Path,
        config: StudyConfig | None = None,
        datasets: Sequence[str] = ("german",),
        error_types: Sequence[str] = ("mislabels",),
    ) -> None:
        self.root = root
        self.config = config or chaos_config()
        self.datasets = tuple(datasets)
        self.error_types = tuple(error_types)
        self.store_path = root / "chaos-study.json"

    @property
    def unit_coords(self) -> list[tuple[str, str, int]]:
        """Every (dataset, error_type, repetition) unit of the study."""
        return [
            (dataset, error_type, repetition)
            for dataset in self.datasets
            for error_type in self.error_types
            for repetition in range(self.config.n_repetitions)
        ]

    def baseline(self) -> dict[str, bytes]:
        """Fingerprint of the serial reference store (memoized per config)."""
        return serial_baseline_fingerprint(
            self.config, self.datasets, self.error_types, self.root
        )

    def run(
        self,
        plan: FaultPlan | None = None,
        workers: int = 2,
        max_retries: int = 2,
        cell_timeout: float | None = None,
        fsync_journal: bool = False,
        abort_after_units: int | None = None,
        save: bool = True,
        trace: bool = False,
        transport: str = "auto",
    ) -> int:
        """One executor pass over the (possibly partially done) study.

        Uses zero backoff so retries don't slow the suite down; all
        other fault-tolerance behaviour is the production code path.
        ``trace`` turns on structured tracing, so tests can assert on
        observed fault/retry events. ``transport`` selects the dataset
        transport under test; ``workers=1`` runs in-process.
        Returns the number of records added.
        """
        options = ExecutorOptions(
            transport=transport,
            max_retries=max_retries,
            cell_timeout=cell_timeout,
            fsync_journal=fsync_journal,
            backoff_base=0.0,
            fault_plan=plan,
            abort_after_units=abort_after_units,
            trace=trace,
        )
        store = ResultStore(self.store_path)
        return run_parallel_study(
            self.config,
            store,
            workers=workers,
            datasets=self.datasets,
            error_types=self.error_types,
            options=options,
            save=save,
        )

    def resume(self, workers: int = 2, max_retries: int = 2) -> int:
        """A fault-free pass completing whatever the last run left."""
        return self.run(plan=None, workers=workers, max_retries=max_retries)

    def store(self) -> ResultStore:
        """The chaos store, freshly loaded from disk."""
        return ResultStore(self.store_path)

    def assert_converged(self) -> None:
        """The headline chaos assertion.

        The chaos store — manifest *and* every compressed shard — must
        be byte-identical to the serial baseline, report zero
        integrity violations, and leave no journal shards or failure
        sidecars behind.
        """
        assert self.store_path.exists(), "chaos store was never saved"
        assert store_fingerprint(self.store_path) == self.baseline(), (
            "chaos store diverged from the serial baseline"
        )
        store = self.store()
        violations = store.verify()
        assert violations == [], f"integrity violations: {violations}"
        assert store.journal_paths() == [], "journal shards were not compacted"
        failures = store.failures_path
        assert failures is not None and not failures.exists(), (
            "failures sidecar left behind"
        )


@pytest.fixture
def chaos_study(tmp_path) -> ChaosStudy:
    """A tiny real study wired for deterministic fault injection."""
    return ChaosStudy(tmp_path)
