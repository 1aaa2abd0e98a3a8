"""Populate the shared bench result store (resumable).

Scale: ``STUDY_CONFIGS`` in ``benchmarks/conftest.py`` — n_sample=3000
with a 40% test split; 12 repetitions for missing values and
mislabels, 8 for outliers (which have 10 model versions per
repetition). The store is keyed per run, so re-running this script
resumes instead of recomputing — including records recovered from
JSONL journal shards of an interrupted run.

``--workers N`` shards the pending runs across a multiprocessing
pool; the resulting store is byte-identical to a serial run.
"""
import argparse

from conftest import STORE_PATH, STUDY_CONFIGS

from repro.benchmark import ResultStore, run_parallel_study


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes (1 runs the units in-process)",
    )
    args = parser.parse_args()
    store = ResultStore(STORE_PATH)
    for error_type, config in STUDY_CONFIGS.items():
        added = run_parallel_study(
            config,
            store,
            workers=args.workers,
            error_types=(error_type,),
            progress=lambda line: print(line, flush=True),
        )
        print(f"{error_type}: +{added} (total {len(store)})", flush=True)
    print("study complete:", len(store), "records", flush=True)


if __name__ == "__main__":
    main()
