"""Live monitoring of an in-flight multi-worker study.

The acceptance contract of the telemetry pipeline: ``repro obs-report``
(:func:`repro.obs.scan_run`) observes a *running* executor — not a
finished store — purely from its trace sidecars, and its progress,
throughput, ETA and heartbeat fields converge to the planned cell
count by the time the run completes.
The study runs on a two-worker process pool in a separate interpreter
(so the pool never forks a threaded process), while the test polls
the very same trace shards the live worker processes are appending to.
"""

import json
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import repro
from repro.__main__ import main
from repro.benchmark import ResultStore
from repro.obs import scan_run

STUDY = textwrap.dedent(
    """
    import sys

    from repro.benchmark import ExecutorOptions, ResultStore, run_parallel_study
    from repro.testing.fixtures import chaos_config

    run_parallel_study(
        chaos_config(),
        ResultStore(sys.argv[1]),
        workers=2,
        datasets=("german",),
        error_types=("mislabels",),
        options=ExecutorOptions(backend="process", trace=True),
    )
    """
)


def test_monitor_converges_on_inflight_study(tmp_path, capsys):
    store_path = tmp_path / "study.json"
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (src, env.get("PYTHONPATH")) if path
    )
    study = subprocess.Popen(
        [sys.executable, "-c", STUDY, str(store_path)],
        env=env,
        stderr=subprocess.PIPE,
        text=True,
    )
    snapshots = []
    deadline = time.monotonic() + 120
    try:
        while study.poll() is None and time.monotonic() < deadline:
            snapshots.append(scan_run(store_path))
            time.sleep(0.05)
    finally:
        if study.poll() is None:
            study.kill()
        _out, stderr = study.communicate(timeout=30)
    assert study.returncode == 0, f"study failed or did not finish: {stderr}"

    # -- mid-flight observations ---------------------------------------
    # progress counters never regress while the run is live
    done_series = [s.cells_done for s in snapshots]
    assert done_series == sorted(done_series)
    planned = [s for s in snapshots if s.planned]
    for snapshot in planned:
        assert snapshot.cells_done <= snapshot.planned["cells"]
    # once cells complete mid-run, throughput and ETA are live
    inflight = [s for s in planned if 0 < s.cells_done < s.planned["cells"]]
    for snapshot in inflight:
        assert snapshot.cells_per_second > 0.0
        assert snapshot.eta_seconds is not None and snapshot.eta_seconds >= 0.0

    # -- convergence ----------------------------------------------------
    final = scan_run(store_path)
    assert final.complete and final.runs == 1
    # german x mislabels x 2 repetitions, one model per unit
    assert final.planned == {
        "units": 2, "cells": 2, "workers": 2, "backend": "process"
    }
    assert final.cells_done == final.cells_started == 2
    assert final.units_merged == 2
    assert final.eta_seconds is None
    assert final.retries == 0 and final.poisoned == 0
    # every completed cell was heartbeated by a live worker track
    assert final.heartbeats >= 2 * 2 + 2
    tracks = final.tracks.values()
    assert tracks, "worker heartbeats must yield worker tracks"
    assert sum(track["cells_done"] for track in tracks) == final.cells_done
    assert all(not track["stalled"] for track in tracks)
    throughput_cells = sum(
        stats["cells"] for stats in final.throughput.values()
    )
    assert throughput_cells == 2
    for key in final.throughput:
        assert key[:2] == ("german", "mislabels")

    # the scan stays valid after save() compacts the shards
    store = ResultStore(store_path)
    store.save()
    compacted = scan_run(store_path)
    assert compacted.complete
    assert compacted.cells_done == final.cells_done
    assert compacted.store_records == len(store)
    assert main(["obs-report", str(store_path), "--json", "--follow"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["complete"] is True
    assert payload["cells_done"] == final.cells_done
