"""Study benchmark: one workload, one run, one JSON result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload linear-slice --seed 0 --seconds 30 --trace 0

The last stdout line is ``{"correct", "attempted", "failed",
"metrics"}``. With ``--trace 0`` the metrics are the end-to-end ones
(``records_per_s``, ``setup_s``, ``peak_rss_mb``); with ``--trace 1``
they are the per-layer ones, and the per-layer JSON and a Chrome trace
land in ``perfbench/_out/<workload>/``.

This process imports nothing heavy: it starts fresh ``harness.py``
processes and times each from spawn to "ready", so ``setup_s`` covers
interpreter start, imports, dataset generation and the warm-up. It is
the median over ``SETUPS`` fresh processes: one before the measuring
process, the measuring process itself, and one after it.

``--pin`` recomputes ``perfbench/digests.json`` (seed 0).
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper-slice", "linear-slice", "linear-x2", "tables")
#: Fresh processes whose set-up time is measured per run (median taken).
SETUPS = 3
#: Wall-clock budget for a whole run, children included.
DEADLINE_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def thread_env(workload: str) -> dict[str, str]:
    """Child environment with the workload's BLAS/OpenMP thread budget.

    Serial workloads keep the libraries' default (one thread per CPU);
    ``linear-x2`` runs one compute thread per worker process, so its two
    workers never ask for more threads than the box has CPUs.
    """
    env = {key: value for key, value in os.environ.items() if key not in THREAD_VARS}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    if workload == "linear-x2":
        env.update({key: "1" for key in THREAD_VARS})
    return env


class Child:
    """One harness process, killed if it outlives the run's deadline."""

    def __init__(self, args: list[str], env: dict[str, str], deadline: float) -> None:
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, str(HERE / "harness.py"), *args],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
        )
        remaining = max(1.0, deadline - time.perf_counter())
        self._timer = threading.Timer(remaining, self.process.kill)
        self._timer.start()

    def lines(self):
        assert self.process.stdout is not None
        for line in self.process.stdout:
            yield time.perf_counter(), json.loads(line)

    def finish(self) -> int:
        try:
            return self.process.wait()
        finally:
            self._timer.cancel()

    def kill(self) -> None:
        self._timer.cancel()
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait()


def run_child(args: list[str], env: dict[str, str], deadline: float) -> tuple[float, dict]:
    """Run one harness process; returns (set-up seconds, result payload)."""
    child = Child(args, env, deadline)
    setup_s = None
    result: dict = {}
    try:
        for seen, payload in child.lines():
            if payload.get("ready"):
                setup_s = seen - child.started
            elif "result" in payload:
                result = payload["result"]
        code = child.finish()
    finally:
        child.kill()
    if code != 0 or setup_s is None:
        raise SystemExit(f"perfbench: harness {' '.join(args[:4])} exited {code}")
    return setup_s, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true", help="recompute digests.json")
    args = parser.parse_args()
    if not args.pin and args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: no BENCHMARK.json at {ROOT}", file=sys.stderr)
        return 2
    if args.workload == "tables" and not (ROOT / "benchmarks/_results/study.json").is_file():
        print("perfbench: benchmarks/_results/study.json is missing", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + DEADLINE_S
    # byte-compile once, untimed, so every set-up reads the same caches
    compileall.compile_dir(ROOT / "src", quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)
    work_root = HERE / "_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=work_root))
    try:
        if args.pin:
            run_child(
                ["--role", "pin", "--workdir", str(workdir)],
                thread_env("pin"),
                time.perf_counter() + 3600,
            )
            return 0
        return measure(args, workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir: Path, deadline: float) -> int:
    env = thread_env(args.workload)
    common = [
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", str(workdir),
        "--outdir", str(HERE / "_out" / args.workload),
    ]

    def setup_only() -> float:
        return run_child(["--role", "setup", *common], env, deadline)[0]

    # the extra set-ups straddle the measuring process, so they sample
    # the host at both ends of the run rather than in one burst
    extra = 0 if args.trace else SETUPS - 1
    setups = [setup_only() for _ in range(extra // 2)]
    setup_s, result = run_child(["--role", "measure", *common], env, deadline)
    setups.append(setup_s)
    setups.extend(setup_only() for _ in range(extra - extra // 2))
    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups)
    info = dict(
        result["info"],
        workload=args.workload,
        seed=args.seed,
        setups_s=setups,
        threads={key: env.get(key, "default") for key in THREAD_VARS},
    )
    print(json.dumps({"info": info}))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {
        metric["name"]: metric["unit"]
        for metric in declared["end_to_end"] + declared["per_layer"]
    }
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in sorted(metrics.items())
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
