"""Fast self-test of the benchmark harness (checks, not timings).

Run from the root of a checkout::

    python3 perfbench/selftest.py

It runs one tiny study pass with the layer wrappers installed and
checks that:

- the pass's self times never add up to more than its wall time;
- removing the wrappers leaves every wrapped entry point exactly as it
  was before;
- the record digests accept the pass's own records, and reject a
  record whose metric moved by 1e-9, a record with a negative
  confusion count, and a missing record.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import harness  # noqa: E402
import layers  # noqa: E402

TINY = harness.Study(("german",), ("log_reg",), "none", 1, {"n_sample": 100})


def copy_store(store, change=None, drop=None):
    """In-memory copy of ``store`` with one record altered or dropped."""
    from repro.benchmark import ResultStore

    copy = ResultStore()
    for record in store.iter_records():
        if record.key == drop:
            continue
        if record.key == (change or (None,))[0]:
            record = dataclasses.replace(record, metrics=change[1](dict(record.metrics)))
        copy.add(record)
    return copy


def main() -> int:
    from repro.benchmark import ResultStore

    failures: list[str] = []

    def expect(condition: bool, message: str) -> None:
        if not condition:
            failures.append(message)

    work_root = HERE / "_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=work_root))
    try:
        before = layers.entry_points()
        clock = layers.LayerClock()
        layers.install_study(clock)
        layers.install_tables(clock)
        wrapped = layers.entry_points()
        expect(
            all(wrapped[target] is not before[target] for target in before),
            "some entry point was not wrapped",
        )
        store = ResultStore(workdir / "tiny.json")
        wall, added = harness.run_study_pass(TINY, 0, store, 0, False)
        snapshot = clock.snapshot()
        clock.uninstall()
        after = layers.entry_points()
        left = [target for target in before if after[target] is not before[target]]
        expect(not left, f"wrappers left installed: {left}")
        expect(added > 0, "tiny pass added no records")
        expect(snapshot["calls"].get("ml.tune", 0) > 0, "ml.tune was never timed")
        expect(
            sum(snapshot["self_s"].values()) <= wall,
            f"self times {sum(snapshot['self_s'].values()):.4f}s exceed wall {wall:.4f}s",
        )

        pinned = harness.cell_digests(TINY, store, 0)
        expect(None not in pinned.values(), f"clean records fail their checks: {pinned}")
        expect(not harness.failed_cells(pinned, pinned), "clean records mismatch their pin")
        target = next(store.records(error_type="outliers"))
        cell = f"{target.dataset}/{target.error_type}/{target.model}"

        def nudge(metrics):
            metrics["dirty_test_acc"] += 1e-9
            return metrics

        def negative(metrics):
            key = next(key for key in metrics if key.endswith("__tp"))
            metrics[key] = -1
            return metrics

        for label, corrupted in (
            ("nudged metric", copy_store(store, change=(target.key, nudge))),
            ("negative count", copy_store(store, change=(target.key, negative))),
            ("missing record", copy_store(store, drop=target.key)),
        ):
            digests = harness.cell_digests(TINY, corrupted, 0)
            bad = harness.failed_cells(digests, pinned)
            expect(bad == [cell], f"{label}: expected [{cell}] to fail, got {bad}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
