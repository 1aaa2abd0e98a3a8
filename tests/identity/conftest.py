"""Identity-suite fixtures: the cold-vs-incremental differential harness.

``assert_cells_identical`` runs the same study slice twice — once cold
(``incremental=False``, serial, memoized across tests) and once with
the reuse scope enabled on the requested backend/transport — and diffs
the resulting store's manifest and every compressed shard byte for
byte. It is the executable form of the incremental subsystem's
contract: reuse may only ever change *when* results are computed,
never a single bit of *what*.
"""

from dataclasses import replace

import pytest

from repro.benchmark import ExecutorOptions, ResultStore, run_parallel_study
from repro.testing.fixtures import (
    chaos_config,
    serial_baseline_fingerprint,
    store_fingerprint,
)


@pytest.fixture
def assert_cells_identical(tmp_path):
    """Callable asserting an incremental run matches the cold store.

    Parameters mirror the study surface: pass a full ``config`` (its
    ``incremental`` flag is overridden on each side) or keyword
    overrides for :func:`repro.testing.fixtures.chaos_config`;
    ``backend`` selects the executor backend (``"serial"`` or
    ``"process"``), with ``transport`` applying to the process pool.
    Returns the matching fingerprint so callers can chain further
    comparisons.
    """

    def check(
        config=None,
        *,
        backend="serial",
        transport="auto",
        workers=2,
        datasets=("german",),
        error_types=("mislabels",),
        **overrides,
    ):
        base = config if config is not None else chaos_config(**overrides)
        cold = replace(base, incremental=False)
        warm = replace(base, incremental=True)
        baseline = serial_baseline_fingerprint(cold, datasets, error_types, tmp_path)
        path = tmp_path / f"incremental-{backend}-{transport}.json"
        store = ResultStore(path)
        run_parallel_study(
            warm,
            store,
            workers=workers,
            datasets=datasets,
            error_types=error_types,
            options=ExecutorOptions(backend=backend, transport=transport),
        )
        actual = store_fingerprint(path)
        assert actual.keys() == baseline.keys(), (
            f"{backend}/{transport}: shard layout diverged from cold baseline: "
            f"{sorted(actual)} != {sorted(baseline)}"
        )
        diverged = [name for name in baseline if actual[name] != baseline[name]]
        assert not diverged, (
            f"{backend}/{transport}: incremental store diverged from the "
            f"cold baseline in {diverged}"
        )
        return actual

    return check
