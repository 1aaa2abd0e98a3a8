"""Sharded parallel execution of the study grid.

The study is an embarrassingly parallel grid of independent
``(dataset, error_type, repetition, model, tuning_seed)`` cells — the
structure CleanML and FairPrep exploit as well. Every random draw in
the runner is seeded by hashes of configuration coordinates
(:func:`repro.benchmark.runner._seed_for`), never by execution order,
so distributing cells across processes changes nothing about the
results: the headline guarantee of this module is that parallel and
serial execution produce **byte-identical** result stores.

Three pieces cooperate:

- :func:`plan_work_units` enumerates every pending cell by consulting
  the resumable store first (completed cells are never recomputed,
  including cells recovered from a journal shard of a killed run) and
  groups them into :class:`WorkUnit` shards that share one expensive
  version preparation (dataset, error_type, repetition).
- :func:`run_parallel_study` is the only study driver. It ships units
  to a ``multiprocessing`` pool (stdlib only; the fork start method
  where available — it is cheap and does not re-import the parent —
  with a spawn fallback elsewhere) or runs them one by one in-process
  (the ``serial`` backend, ``workers == 1``, or a single pending
  unit). Process-pool workers receive datasets over the
  :attr:`ExecutorOptions.transport` — zero-copy shared-memory refs
  (:mod:`repro.benchmark.transport`) where available, pickled tables
  otherwise — and every worker appends each completed record to its
  own JSONL journal shard (``{stem}.w{pid}.jsonl``) the moment it
  exists, so a killed run loses at most the in-flight cells.
- The parent merges worker results into the master store and calls
  :meth:`ResultStore.save`, which compacts journal shards into the
  single ``{stem}.json``.

The executor is additionally *crash-safe by construction* (the chaos
suite under ``tests/chaos`` proves it by injecting faults through
:mod:`repro.testing`):

- A unit whose worker raises (or simulates a crash) is **re-queued**
  with capped exponential backoff whose jitter is seeded from the
  unit's coordinates — never from wall-clock randomness — and, before
  the retry, the parent replays all journal shards so records the dead
  worker already appended are recovered instead of recomputed.
- A unit still failing after :attr:`ExecutorOptions.max_retries`
  retries is **poisoned**: recorded in the ``{stem}.failures.jsonl``
  sidecar and skipped, so one pathological cell cannot abort the study.
- :attr:`ExecutorOptions.cell_timeout` arms a ``SIGALRM``-based
  watchdog around every cell, turning hangs into retryable
  :class:`CellTimeoutError` failures.
- :attr:`ExecutorOptions.fsync_journal` makes journal appends durable
  against power loss, and :meth:`ResultStore.verify` audits the final
  on-disk state.

Fault injection hooks: an :attr:`ExecutorOptions.fault_plan` object
(see :class:`repro.testing.FaultPlan`) supplies per-unit injectors
whose ``on_cell`` / ``before_append`` / ``after_append`` callbacks may
raise or sleep at deterministic points; the executor itself is
agnostic of the fault kinds.
"""

from __future__ import annotations

import ctypes
import json
import os
import signal
import time
import zlib
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from multiprocessing import get_context
from typing import Any, Callable, Iterable, Sequence

from repro import obs
from repro.benchmark.config import StudyConfig
from repro.benchmark.results import JournalWriter, ResultStore, RunRecord
from repro.benchmark.runner import ERROR_TYPES, Cell, ExperimentRunner
from repro.benchmark.transport import (
    ShmRegistry,
    TableRef,
    attach_table,
    shared_memory_available,
)
from repro.cleaning.strategies import (
    MISSING_VALUE_REPAIRS,
    OUTLIER_DETECTORS,
    OUTLIER_REPAIRS,
)
from repro.datasets import (
    DATASET_NAMES,
    DatasetDefinition,
    dataset_definition,
    load_dataset,
)
from repro.ml import incremental

#: (detection, repair) pairs the runner produces per error type, in
#: registry order. Used to derive the expected record keys of a cell
#: without preparing any data.
_VARIANTS: dict[str, tuple[tuple[str, str], ...]] = {
    "missing_values": tuple(
        ("missing_values", repair) for repair in MISSING_VALUE_REPAIRS
    ),
    "outliers": tuple(
        (detector, repair)
        for detector in OUTLIER_DETECTORS
        for repair in OUTLIER_REPAIRS
    ),
    "mislabels": (("cleanlab", "flip_labels"),),
}


def expected_cell_keys(
    dataset: str, error_type: str, repetition: int, model: str, tuning_seed: int
) -> list[str]:
    """Store keys a fully-evaluated cell contributes, in registry order."""
    if error_type not in _VARIANTS:
        raise ValueError(
            f"unknown error type {error_type!r}; valid: {ERROR_TYPES}"
        )
    return [
        RunRecord(
            dataset=dataset,
            error_type=error_type,
            detection=detection,
            repair=repair,
            model=model,
            repetition=repetition,
            tuning_seed=tuning_seed,
        ).key
        for detection, repair in _VARIANTS[error_type]
    ]


@dataclass(frozen=True)
class WorkUnit:
    """Pending cells sharing one version preparation.

    Attributes:
        dataset: Dataset name (resolved via the registry in the worker,
            or from the run's unregistered definitions in-process).
        error_type: Error type of the unit.
        repetition: Split index whose versions the unit prepares once.
        cells: Pending ``(model, tuning_seed)`` cells to evaluate.
        done_keys: Record keys of this repetition already in the store;
            workers pre-seed their shard store with them so partially
            completed cells skip the finished repair variants.
    """

    dataset: str
    error_type: str
    repetition: int
    cells: tuple[Cell, ...]
    done_keys: tuple[str, ...] = ()


def _definitions(
    datasets: Sequence[str | DatasetDefinition] | None,
) -> list[DatasetDefinition]:
    """Resolve registered names; pass definition objects through."""
    if datasets is None:
        datasets = DATASET_NAMES
    return [
        dataset if isinstance(dataset, DatasetDefinition) else dataset_definition(dataset)
        for dataset in datasets
    ]


def _unregistered(
    definitions: Sequence[DatasetDefinition],
) -> dict[str, DatasetDefinition]:
    """The definitions the registry does not hold, keyed by name.

    A worker process resolves a unit's dataset by name, so it could
    only ever load the registered definition of that name.
    """
    return {
        definition.name: definition
        for definition in definitions
        if definition.name not in DATASET_NAMES
        or dataset_definition(definition.name) != definition
    }


def plan_work_units(
    config: StudyConfig,
    store: ResultStore,
    datasets: Sequence[str | DatasetDefinition] | None = None,
    error_types: Sequence[str] | None = None,
    models: Sequence[str] | None = None,
) -> list[WorkUnit]:
    """Enumerate every pending cell and shard by shared preparation.

    ``datasets`` holds registered names or :class:`DatasetDefinition`
    objects (default: every registered dataset). A cell is pending
    when any of its expected record keys is missing from ``store``;
    error types a dataset does not support are skipped entirely.

    Units come in ``(dataset, repetition, error_type)`` order, so the
    error-type units of one repetition are adjacent: a process running
    them in turn keeps that repetition's tuned-model results (see
    :func:`repro.ml.incremental.repetition_results`) for all of them.
    """
    error_types = tuple(error_types) if error_types is not None else ERROR_TYPES
    for error_type in error_types:
        if error_type not in ERROR_TYPES:
            raise ValueError(
                f"unknown error type {error_type!r}; valid: {ERROR_TYPES}"
            )
    models = tuple(models) if models is not None else config.models
    units: list[WorkUnit] = []
    for definition in _definitions(datasets):
        dataset = definition.name
        for repetition in range(config.n_repetitions):
            for error_type in error_types:
                if error_type not in definition.error_types:
                    continue
                pending: list[Cell] = []
                done: list[str] = []
                for model in models:
                    for seed in range(config.n_tuning_seeds):
                        keys = expected_cell_keys(
                            dataset, error_type, repetition, model, seed
                        )
                        done.extend(key for key in keys if key in store)
                        if any(key not in store for key in keys):
                            pending.append((model, seed))
                if pending:
                    units.append(
                        WorkUnit(
                            dataset=dataset,
                            error_type=error_type,
                            repetition=repetition,
                            cells=tuple(pending),
                            done_keys=tuple(done),
                        )
                    )
    return units


class CellTimeoutError(RuntimeError):
    """A cell exceeded :attr:`ExecutorOptions.cell_timeout` seconds."""


class StudyAborted(RuntimeError):
    """The run was deliberately aborted mid-study.

    Raised by the executor when :attr:`ExecutorOptions.abort_after_units`
    is set — the chaos harness's deterministic stand-in for ``kill -9``
    of the parent: the compacted save never happens and recovery must
    come from the journal shards on the next run.
    """


#: Valid values of :attr:`ExecutorOptions.backend`.
BACKENDS = ("process", "serial")

#: Valid values of :attr:`ExecutorOptions.transport`.
TRANSPORTS = ("auto", "shm", "pickle")


@dataclass(frozen=True)
class ExecutorOptions:
    """Execution and fault-tolerance knobs of :func:`run_parallel_study`.

    Attributes:
        backend: Where work units execute. ``"process"`` (default) uses
            a ``multiprocessing`` pool of ``workers`` processes (or runs
            in-process when ``workers`` is 1 or one unit is pending);
            ``"serial"`` runs units in-process one by one regardless of
            ``workers``. The result store is byte-identical across both.
        transport: How generated datasets reach process-pool workers.
            ``"shm"`` publishes each dataset once into shared-memory
            segments (see :mod:`repro.benchmark.transport`) and ships
            workers a zero-copy ref; ``"pickle"`` loads the dataset in
            the parent and pickles the table into every task;
            ``"auto"`` (default) picks shm when available, else
            pickle. Ignored by in-process runs, which share the
            parent's address space.
        max_retries: Re-queue attempts per failing work unit before it
            is poisoned (recorded in ``{stem}.failures.jsonl`` and
            skipped rather than aborting the study).
        cell_timeout: Wall-clock seconds one ``(model, tuning_seed)``
            cell may take before a ``SIGALRM`` watchdog raises
            :class:`CellTimeoutError` inside the worker (None
            disables). Off the main thread — an in-process run driven
            from another thread — or on platforms without ``SIGALRM``,
            a monotonic post-hoc deadline check stands in for the
            watchdog: it cannot interrupt a hung cell, but an
            overrunning cell still fails with
            :class:`CellTimeoutError` once it returns (the
            ``cell_deadline_fallback`` counter in :mod:`repro.obs`
            records every such degradation).
        fsync_journal: fsync every journal append before acknowledging
            it (durable against power loss, slower).
        backoff_base: First retry delay in seconds; each further
            attempt doubles it. ``0`` disables sleeping (used by the
            chaos tests to stay fast).
        backoff_cap: Upper bound on any single retry delay.
        backoff_seed: Seed of the deterministic backoff jitter. The
            jitter is a pure function of (seed, unit coordinates,
            attempt) — no wall-clock randomness anywhere.
        fault_plan: Optional fault-injection plan (an object with a
            ``unit_injector(dataset, error_type, repetition, attempt,
            cell_timeout)`` method, see :class:`repro.testing.FaultPlan`).
            Production runs leave this None.
        abort_after_units: Raise :class:`StudyAborted` in the parent
            after merging this many units — a deterministic simulated
            kill point for crash-recovery tests.
        trace: Emit structured trace events (see :mod:`repro.obs`).
            The parent writes executor events (retries, poisonings,
            backoff sleeps, merged units) to ``{stem}.trace.jsonl``;
            each worker traces its units into
            ``{stem}.trace.w{pid}.jsonl``, compacted into the parent
            shard by :meth:`ResultStore.save`. Study results are
            byte-identical with tracing on or off.
    """

    backend: str = "process"
    transport: str = "auto"
    max_retries: int = 2
    cell_timeout: float | None = None
    fsync_journal: bool = False
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    backoff_seed: int = 0
    fault_plan: Any = None
    abort_after_units: int | None = None
    trace: bool = False

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; valid: {BACKENDS}"
            )
        if self.transport not in TRANSPORTS:
            raise ValueError(
                f"unknown transport {self.transport!r}; valid: {TRANSPORTS}"
            )
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.cell_timeout is not None and self.cell_timeout <= 0:
            raise ValueError(
                f"cell_timeout must be > 0, got {self.cell_timeout}"
            )
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValueError("backoff_base and backoff_cap must be >= 0")
        if self.abort_after_units is not None and self.abort_after_units < 1:
            raise ValueError(
                f"abort_after_units must be >= 1, got {self.abort_after_units}"
            )


def backoff_delay(
    options: ExecutorOptions, coords: tuple[str, str, int], attempt: int
) -> float:
    """Deterministic capped exponential backoff for a unit's retry.

    ``attempt`` counts from 1 (the first retry). The jitter factor in
    ``[0.5, 1.5)`` is derived from a CRC-32 hash of the seed, the
    unit's coordinates and the attempt number, so identical studies
    back off identically.
    """
    if options.backoff_base <= 0:
        return 0.0
    raw = min(options.backoff_cap, options.backoff_base * 2 ** (attempt - 1))
    text = f"{options.backoff_seed}|{'|'.join(map(str, coords))}|{attempt}"
    fraction = zlib.crc32(text.encode("utf-8")) / 2**32
    return raw * (0.5 + fraction)


@contextmanager
def _monotonic_deadline(seconds: float):
    """Post-hoc deadline check for contexts that cannot arm SIGALRM.

    Cannot interrupt a hung cell (nothing can, off the main thread),
    but a cell that overran its deadline still *fails* — with the same
    :class:`CellTimeoutError` the watchdog raises — once its body
    returns, so retry/poison accounting stays uniform across backends.
    Records already journaled by the overrunning cell survive via the
    normal replay path, exactly as they would after a watchdog kill.
    Every use bumps the ``cell_deadline_fallback`` warning counter.
    """
    obs.counter("cell_deadline_fallback")
    started = time.monotonic()
    yield
    elapsed = time.monotonic() - started
    if elapsed > seconds:
        raise CellTimeoutError(
            f"cell exceeded {seconds:g}s deadline ({elapsed:.3f}s, "
            "post-hoc monotonic check)"
        )


@contextmanager
def _cell_deadline(seconds: float | None):
    """Arm a ``SIGALRM`` watchdog that turns a hung cell into an error.

    No-op when ``seconds`` is None. When the platform lacks
    ``SIGALRM`` or the caller is not the main thread of its process
    (an in-process run driven from another thread; pool workers run
    cells on their main thread), degrades to the
    :func:`_monotonic_deadline` post-hoc check instead of silently
    dropping the deadline.
    """
    if seconds is None:
        yield
        return
    if not hasattr(signal, "SIGALRM"):
        with _monotonic_deadline(seconds):
            yield
        return

    def _on_alarm(signum, frame):
        raise CellTimeoutError(f"cell exceeded {seconds:g}s deadline")

    try:
        previous = signal.signal(signal.SIGALRM, _on_alarm)
    except ValueError:  # not in the main thread
        with _monotonic_deadline(seconds):
            yield
        return
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


class _ShardStore:
    """Minimal store protocol for one worker's shard.

    Supports exactly what :class:`ExperimentRunner` needs — key
    membership and :meth:`add` — plus incremental journaling of every
    added record. Pre-seeded with the unit's completed keys so the
    runner's pending filter skips finished repair variants. An
    optional fault injector is invoked immediately before and after
    every journal append (the two crash windows a real worker death
    can hit).
    """

    def __init__(
        self,
        done_keys: Iterable[str],
        journal: JournalWriter | None = None,
        injector: Any = None,
    ) -> None:
        self._seen = set(done_keys)
        self._journal = journal
        self._injector = injector
        self.added: list[RunRecord] = []

    def __contains__(self, key: str) -> bool:
        return key in self._seen

    def add(self, record: RunRecord) -> None:
        if record.key in self._seen:
            raise ValueError(f"duplicate record key {record.key!r}")
        if self._injector is not None:
            self._injector.before_append(record.key, self._journal)
        if self._journal is not None:
            self._journal.write(record)
        if self._injector is not None:
            self._injector.after_append(record.key, self._journal)
        self._seen.add(record.key)
        self.added.append(record)


def _pool_context():
    """The multiprocessing start method for the worker pool.

    Fork (where available) keeps worker start-up cheap and — unlike
    spawn — never re-imports the parent's ``__main__``, so the
    executor also works from REPLs and piped scripts. Worker results
    do not depend on the start method: all randomness is seeded from
    configuration coordinates, never from inherited RNG state.
    """
    try:
        return get_context("fork")
    except ValueError:
        return get_context("spawn")


#: (getter, setter) thread-count functions an OpenBLAS build may
#: export: the plain library, scipy's bundled build and numpy's
#: 64-bit-integer build.
_OPENBLAS_THREAD_FUNCTIONS = (
    ("openblas_get_num_threads", "openblas_set_num_threads"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
)


def _loaded_openblas() -> list[ctypes.CDLL]:
    """Every OpenBLAS shared library mapped into this process.

    numpy and scipy each bundle their own copy, so there may be
    several. Empty where ``/proc/self/maps`` is unavailable.
    """
    try:
        with open("/proc/self/maps") as maps:
            paths = {
                fields[5].strip()
                for fields in (line.split(maxsplit=5) for line in maps)
                if len(fields) == 6 and "openblas" in fields[5].lower()
            }
    except OSError:
        return []
    libraries = []
    for path in sorted(paths):
        try:
            libraries.append(ctypes.CDLL(path))
        except OSError:
            continue
    return libraries


def _set_blas_threads(threads: int | Sequence[int]) -> list[int]:
    """Set the thread count of every loaded OpenBLAS; return the old ones.

    ``threads`` is one count for every library, or one count per
    library in the order this function returns them, which restores
    an earlier state. Does nothing where no OpenBLAS is found.
    """
    controls = []
    for library in _loaded_openblas():
        for getter, setter in _OPENBLAS_THREAD_FUNCTIONS:
            if getattr(library, setter, None) is not None:
                controls.append((getattr(library, getter), getattr(library, setter)))
                break
    counts = [threads] * len(controls) if isinstance(threads, int) else threads
    previous = [get() for get, __ in controls]
    for (__, set_threads), count in zip(controls, counts):
        set_threads(count)
    return previous


def _single_blas_thread() -> None:
    """Pool initializer: run every loaded OpenBLAS on one thread.

    Each bundled OpenBLAS defaults to one thread per CPU, so a pool of
    process workers would otherwise oversubscribe the CPUs many times
    over on the study's small matrices. In-process runs take the same
    cap for their duration (see :func:`run_parallel_study`). Records
    do not depend on the thread count.
    """
    _set_blas_threads(1)


#: Per-process cache of generated datasets, keyed by
#: (name, n_rows, seed) — pool workers execute many units of the same
#: dataset and must not regenerate it each time.
_DATASET_CACHE: dict[tuple[str, int, int], Any] = {}


def _load_cached(name: str, n_rows: int, seed: int):
    key = (name, n_rows, seed)
    if key not in _DATASET_CACHE:
        _DATASET_CACHE[key] = load_dataset(name, n_rows=n_rows, seed=seed)
    return _DATASET_CACHE[key]


#: Per-process cache of shared-memory attachments, keyed by segment
#: names. Holds (table, segment handles): the handles MUST stay
#: referenced while the table is in use or the mapping would close
#: under the zero-copy column views.
_ATTACH_CACHE: dict[tuple[str, ...], Any] = {}


def _attach_cached(ref: TableRef):
    key = ref.segment_names
    if key not in _ATTACH_CACHE:
        _ATTACH_CACHE[key] = attach_table(ref)
    return _ATTACH_CACHE[key][0]


def _resolve_dataset(config: StudyConfig, unit: WorkUnit, payload: Any):
    """Materialise a unit's (definition, table) from its task payload.

    ``payload`` is a :class:`TableRef` under the shm transport, a
    pickled :class:`repro.tabular.Table` under the pickle transport,
    an unregistered ``(definition, table)`` pair (in-process only), or
    None when an in-process run loads from the per-process cache
    directly.
    """
    if isinstance(payload, TableRef):
        return dataset_definition(unit.dataset), _attach_cached(payload)
    if isinstance(payload, tuple):
        return payload
    if payload is not None:
        return dataset_definition(unit.dataset), payload
    return _load_cached(
        unit.dataset, config.dataset_size(unit.dataset), config.generation_seed
    )


#: Worker task: (config, unit, journal prefix, options, attempt
#: number, dataset payload — see :func:`_resolve_dataset`).
_Task = tuple[StudyConfig, WorkUnit, "str | None", ExecutorOptions, int, Any]


def _run_unit(task: _Task) -> list[dict[str, Any]]:
    config, unit, journal_prefix, options, attempt, payload = task
    # each worker process traces into its own shard file (pid-keyed,
    # like the journal shards); the scope restores any ambient tracer
    # afterwards
    trace_scope = (
        obs.scoped(f"{journal_prefix}.trace.w{os.getpid()}.jsonl")
        if options.trace and journal_prefix is not None
        else nullcontext()
    )
    with trace_scope:
        return _run_unit_traced(task)


def _run_unit_traced(task: _Task) -> list[dict[str, Any]]:
    config, unit, journal_prefix, options, attempt, payload = task
    definition, table = _resolve_dataset(config, unit, payload)
    injector = None
    if options.fault_plan is not None:
        injector = options.fault_plan.unit_injector(
            unit.dataset,
            unit.error_type,
            unit.repetition,
            attempt=attempt,
            cell_timeout=options.cell_timeout,
        )
    journal = (
        JournalWriter(
            f"{journal_prefix}.w{os.getpid()}.jsonl",
            fsync=options.fsync_journal,
        )
        if journal_prefix is not None
        else None
    )
    shard = _ShardStore(unit.done_keys, journal, injector)
    runner = ExperimentRunner(config, shard)  # type: ignore[arg-type]

    def cell_guard(index: int, model_name: str, seed: int):
        @contextmanager
        def guarded():
            with _cell_deadline(options.cell_timeout):
                if injector is not None:
                    injector.on_cell(index, model_name, seed)
                yield

        return guarded()

    try:
        runner.run_repetition_cells(
            definition,
            table,
            unit.error_type,
            unit.repetition,
            unit.cells,
            cell_guard=cell_guard,
        )
    finally:
        if journal is not None:
            journal.close()
    return [record.to_json() for record in shard.added]


def _execute_unit(
    task: _Task,
) -> tuple[WorkUnit, list[dict[str, Any]], str | None]:
    """Worker entry point: run one unit, journal and return its records.

    Never raises: any failure — a genuine exception, a cell timeout or
    an injected crash — is reported as ``(unit, [], error)`` so the
    parent's retry loop stays in control of the pool. A failed attempt
    returns no payloads even if some cells completed, mirroring a real
    worker death; the completed records survive in the journal shard
    and are recovered by the parent before the retry.
    """
    unit = task[1]
    try:
        return unit, _run_unit(task), None
    except Exception as error:  # noqa: BLE001 — the parent decides
        return unit, [], f"{type(error).__name__}: {error}"


def _unit_coords(unit: WorkUnit) -> tuple[str, str, int]:
    return (unit.dataset, unit.error_type, unit.repetition)


def _replan_unit(
    config: StudyConfig, store: ResultStore, unit: WorkUnit
) -> WorkUnit | None:
    """Re-derive a failed unit's pending cells against the live store.

    Called after the parent replayed the journal shards of a crashed
    attempt: cells whose records were already journaled drop out, so a
    retry never recomputes a completed cell. Returns None when nothing
    is pending anymore (the crash happened after the last append).
    """
    pending: list[Cell] = []
    done: dict[str, None] = dict.fromkeys(unit.done_keys)
    for model, seed in unit.cells:
        keys = expected_cell_keys(
            unit.dataset, unit.error_type, unit.repetition, model, seed
        )
        done.update((key, None) for key in keys if key in store)
        if any(key not in store for key in keys):
            pending.append((model, seed))
    if not pending:
        return None
    return WorkUnit(
        dataset=unit.dataset,
        error_type=unit.error_type,
        repetition=unit.repetition,
        cells=tuple(pending),
        done_keys=tuple(done),
    )


def run_parallel_study(
    config: StudyConfig,
    store: ResultStore,
    workers: int | None = None,
    datasets: Sequence[str | DatasetDefinition] | None = None,
    error_types: Sequence[str] | None = None,
    models: Sequence[str] | None = None,
    progress: Callable[[str], None] | None = None,
    save: bool = True,
    options: ExecutorOptions | None = None,
) -> int:
    """Run all pending cells of a study, sharded across worker processes.

    Plans pending work units against ``store`` (so completed runs —
    including records recovered from journal shards of a killed run —
    are never recomputed), executes them on a ``multiprocessing``
    pool of ``workers`` processes (in-process when ``workers`` is 1,
    the backend is ``serial`` or only one unit is pending), merges the
    results into ``store`` and, when ``save`` is true and the store
    has a backing path, compacts everything into its JSON file.
    Returns the number of new records added (including records
    recovered from the journal shards of failed attempts).

    Units run with every loaded OpenBLAS capped at one thread: pool
    workers through their initializer, in-process units for the
    duration of the run, after which the caller's thread counts are
    put back, whether the run returns or raises.

    ``datasets`` takes registered names and :class:`DatasetDefinition`
    objects alike. A definition the registry does not hold (such as a
    custom dataset whose generator is a closure) can only run
    in-process: a process-pool run with one raises :class:`ValueError`
    before any work.

    ``options`` controls fault tolerance (see :class:`ExecutorOptions`):
    failing units are retried with seeded capped-exponential backoff
    after recovering their journaled records, and poisoned into the
    ``{stem}.failures.jsonl`` sidecar once retries are exhausted —
    the study itself keeps going. A fully successful run removes a
    stale sidecar from an earlier run.
    """
    workers = config.workers if workers is None else workers
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    options = ExecutorOptions() if options is None else options
    definitions = _definitions(datasets)
    unregistered = _unregistered(definitions)
    if unregistered and options.backend == "process" and workers > 1:
        raise ValueError(
            f"unregistered dataset definition(s) {sorted(unregistered)} cannot "
            "cross a process boundary; run with workers=1 or the serial backend"
        )
    units = plan_work_units(
        config, store, datasets=definitions, error_types=error_types, models=models
    )
    if progress is not None:
        n_cells = sum(len(unit.cells) for unit in units)
        progress(
            f"planned {len(units)} work units ({n_cells} pending cells) "
            f"for {workers} worker(s)"
        )
    if not units:
        # nothing pending, but a resumed kill may still owe a compaction
        # (journal shards holding every record of the aborted run) and a
        # stale failures sidecar its clean bill of health
        if save and store.path is not None:
            if store.journal_paths():
                store.save()
            _write_failures(store, [])
        return 0
    journal_prefix = (
        str(store.path.with_suffix("")) if store.path is not None else None
    )
    in_process = (
        options.backend == "serial" or workers == 1 or len(units) == 1
    )
    # dataset transport only applies across process boundaries;
    # in-process units share the parent's address space and cache
    transport = "none" if in_process else options.transport
    if transport == "auto":
        transport = "shm" if shared_memory_available() else "pickle"
    registry = ShmRegistry() if transport == "shm" else None

    def _dataset_key(unit: WorkUnit) -> tuple[str, int, int]:
        return (
            unit.dataset,
            config.dataset_size(unit.dataset),
            config.generation_seed,
        )

    unregistered_tables: dict[str, Any] = {}

    def dataset_payload(unit: WorkUnit) -> Any:
        """Transport payload for one dispatched task (leases shm)."""
        if unit.dataset in unregistered:
            if unit.dataset not in unregistered_tables:
                definition = unregistered[unit.dataset]
                unregistered_tables[unit.dataset] = (
                    definition,
                    definition.generate(
                        n_rows=config.dataset_size(unit.dataset),
                        seed=config.generation_seed,
                    ),
                )
            return unregistered_tables[unit.dataset]
        if transport == "none":
            return None
        _definition, table = _load_cached(*_dataset_key(unit))
        if registry is not None:
            return registry.lease(_dataset_key(unit), table)
        return table

    added = 0
    merged_units = 0
    attempts: dict[tuple[str, str, int], int] = {}
    failures: list[dict[str, Any]] = []

    def merge(unit: WorkUnit, payloads: list[dict[str, Any]]) -> None:
        nonlocal added, merged_units
        merged = 0
        for payload in payloads:
            record = RunRecord.from_json(payload)
            if record.key not in store:
                store.add(record)
                merged += 1
        added += merged
        merged_units += 1
        # flushed so a live `obs-report` sees the merge frontier move
        obs.event(
            "unit_merged",
            dataset=unit.dataset,
            error_type=unit.error_type,
            repetition=unit.repetition,
            records=merged,
        )
        obs.flush()
        if progress is not None:
            progress(
                f"{unit.dataset}/{unit.error_type}/rep{unit.repetition}: "
                f"+{merged}"
            )
        if (
            options.abort_after_units is not None
            and merged_units >= options.abort_after_units
        ):
            raise StudyAborted(
                f"aborted after {merged_units} unit(s) (simulated kill)"
            )

    def handle_failure(unit: WorkUnit, error: str) -> WorkUnit | None:
        """Recover journaled records; re-queue or poison the unit."""
        nonlocal added
        added += store.replay_journal()
        coords = _unit_coords(unit)
        attempts[coords] = attempt = attempts.get(coords, 0) + 1
        label = f"{unit.dataset}/{unit.error_type}/rep{unit.repetition}"
        if error.startswith("CellTimeoutError"):
            obs.counter("timeouts")
        replanned = _replan_unit(config, store, unit)
        if replanned is None:
            obs.event(
                "recovered",  # flushed below: monitors track fault tallies live
                dataset=unit.dataset,
                error_type=unit.error_type,
                repetition=unit.repetition,
                attempt=attempt,
                error=error,
            )
            obs.flush()
            if progress is not None:
                progress(f"{label}: recovered from journal after {error}")
            return None
        if attempt > options.max_retries:
            failures.append(
                {
                    "dataset": unit.dataset,
                    "error_type": unit.error_type,
                    "repetition": unit.repetition,
                    "attempts": attempt,
                    "error": error,
                    "pending_cells": [list(cell) for cell in replanned.cells],
                }
            )
            obs.event(
                "poison",
                dataset=unit.dataset,
                error_type=unit.error_type,
                repetition=unit.repetition,
                attempts=attempt,
                error=error,
            )
            obs.flush()
            if progress is not None:
                progress(f"{label}: poisoned after {attempt} attempt(s): {error}")
            return None
        obs.event(
            "retry",
            dataset=unit.dataset,
            error_type=unit.error_type,
            repetition=unit.repetition,
            attempt=attempt,
            error=error,
        )
        obs.flush()
        if progress is not None:
            progress(
                f"{label}: retry {attempt}/{options.max_retries} after {error}"
            )
        return replanned

    def run_rounds(execute: Callable[[list[_Task]], Iterable]) -> None:
        queue = list(units)
        while queue:
            tasks: list[_Task] = [
                (
                    config,
                    unit,
                    journal_prefix,
                    options,
                    attempts.get(_unit_coords(unit), 0),
                    dataset_payload(unit),
                )
                for unit in queue
            ]
            queue = []
            delays: list[float] = []
            for unit, payloads, error in execute(tasks):
                if registry is not None:
                    # one lease per dispatched task: a retried unit
                    # leases afresh when its next round's task is built
                    registry.release(_dataset_key(unit))
                if error is None:
                    merge(unit, payloads)
                    continue
                replanned = handle_failure(unit, error)
                if replanned is not None:
                    queue.append(replanned)
                    delays.append(
                        backoff_delay(
                            options,
                            _unit_coords(replanned),
                            attempts[_unit_coords(replanned)],
                        )
                    )
            if queue and delays and max(delays) > 0:
                obs.event("backoff_sleep", seconds=max(delays))
                time.sleep(max(delays))

    trace_scope = (
        obs.scoped(f"{journal_prefix}.trace.jsonl")
        if options.trace and journal_prefix is not None
        else nullcontext()
    )
    try:
        with trace_scope:
            obs.event(
                "planned",
                units=len(units),
                cells=sum(len(unit.cells) for unit in units),
                workers=workers,
                backend=options.backend,
                transport=transport,
            )
            # flushed immediately: the planned totals are a live
            # `obs-report`'s denominator and must be visible before any
            # unit finishes; the event's ts also starts the run's scope
            # in the trace (repro.obs.report)
            obs.flush()
            if in_process:
                caller_threads = _set_blas_threads(1)
                try:
                    run_rounds(lambda tasks: map(_execute_unit, tasks))
                finally:
                    _set_blas_threads(caller_threads)
                    incremental.drop_repetition_results()
            else:
                context = _pool_context()
                with context.Pool(
                    processes=min(workers, len(units)),
                    initializer=_single_blas_thread,
                ) as pool:
                    run_rounds(
                        lambda tasks: pool.imap_unordered(_execute_unit, tasks)
                    )
    finally:
        # every exit path — completion, StudyAborted, a genuine crash —
        # must leave /dev/shm clean, lease counts notwithstanding
        if registry is not None:
            registry.close()
    if store.path is not None:
        _write_failures(store, failures)
    if save and store.path is not None:
        store.save()
    return added


def _write_failures(store: ResultStore, failures: list[dict[str, Any]]) -> None:
    """Persist poisoned units to the sidecar, or clear a stale one.

    A run that poisoned nothing removes any existing sidecar: its units
    either completed now or were never planned, so stale entries would
    only mislead :meth:`ResultStore.verify`.
    """
    path = store.failures_path
    if path is None:
        return
    if not failures:
        path.unlink(missing_ok=True)
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a") as handle:
        for failure in failures:
            handle.write(json.dumps(failure) + "\n")
        handle.flush()
        os.fsync(handle.fileno())
