"""What a ``ReuseScope`` keeps alive stays small next to the versions.

A scope lives as long as its work unit, and an outliers unit prepares
ten dataset versions, so anything memoised per version is held ten
times over until the unit ends. This pins the budget: after a real
knn + log_reg outliers unit, the scope's memoised values total no more
bytes than the versions' own feature matrices. An n_test × n_train
block per version (what a kNN distance memo would store) is more than
twice that budget at this scale.
"""

import numpy as np

from repro.benchmark import ExperimentRunner, ResultStore, StudyConfig
from repro.datasets import load_dataset
from repro.ml import incremental


def _array_bytes(value) -> int:
    """Bytes of every ndarray reachable through tuples, lists and dicts."""
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, dict):
        return _array_bytes(list(value.values()))
    if isinstance(value, (tuple, list)):
        return sum(_array_bytes(item) for item in value)
    return 0


def test_scope_memo_is_bounded_by_the_feature_matrices(monkeypatch):
    scopes: list[incremental.ReuseScope] = []
    prepared: list = []

    class RecordingScope(incremental.ReuseScope):
        def __init__(self) -> None:
            super().__init__()
            scopes.append(self)

    prepare = ExperimentRunner._prepare_versions

    def recording_prepare(self, *args, **kwargs):
        versions = prepare(self, *args, **kwargs)
        prepared.append(versions)
        return versions

    monkeypatch.setattr(incremental, "ReuseScope", RecordingScope)
    monkeypatch.setattr(ExperimentRunner, "_prepare_versions", recording_prepare)

    config = StudyConfig(
        n_sample=600,
        n_repetitions=1,
        models=("knn", "log_reg"),
        dataset_sizes={"german": 600},
    )
    definition, table = load_dataset("german", n_rows=600, seed=0)
    added = ExperimentRunner(config, ResultStore()).run_repetition_cells(
        definition, table, "outliers", 0, [("knn", 0), ("log_reg", 0)]
    )
    assert added > 0

    (scope,) = scopes
    (versions,) = prepared
    dirty, repaired = versions
    assert len(repaired) >= 5
    matrices = {
        id(matrix): matrix
        for version in (dirty, *repaired)
        for matrix in version.features
    }
    feature_bytes = sum(matrix.nbytes for matrix in matrices.values())
    memo_bytes = _array_bytes(list(scope._memo.values()))
    assert memo_bytes <= feature_bytes, (
        f"ReuseScope holds {memo_bytes} bytes of memoised arrays, more than "
        f"the {feature_bytes} bytes of the versions' feature matrices"
    )
