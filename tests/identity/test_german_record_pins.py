"""Per-record bit pins of every german configuration, xgboost included.

The golden store pins two german/mislabels/log_reg records; this pins
one repetition of german x {missing_values, outliers, mislabels} x
{log_reg, knn, xgboost} at chaos size: all 48 records, one per
detection x repair x model. Each record's canonical JSON (sorted keys,
no whitespace) is hashed the way ``perfbench/digests.json`` hashes its
cells, keyed ``dataset/error_type/detection/repair/model``, so a
failing diff names the configuration whose bits moved.

Regenerate the pins only for an intentional output change::

    PYTHONPATH=src python tests/identity/test_german_record_pins.py
"""

import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from repro.benchmark import ResultStore, run_parallel_study
from repro.testing.fixtures import chaos_config

PINS = Path(__file__).parent / "golden" / "german_record_digests.json"

CONFIG = dict(
    n_sample=150, n_repetitions=1, models=("log_reg", "knn", "xgboost")
)


def record_digests(workdir: Path) -> dict[str, str]:
    store = ResultStore(workdir / "german.json")
    run_parallel_study(
        chaos_config(**CONFIG),
        store,
        workers=1,
        datasets=("german",),
        error_types=("missing_values", "outliers", "mislabels"),
    )
    digests = {}
    for record in store.records():
        key = "/".join(
            (
                record.dataset,
                record.error_type,
                record.detection,
                record.repair,
                record.model,
            )
        )
        text = json.dumps(record.to_json(), sort_keys=True, separators=(",", ":"))
        digests[key] = hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
    return dict(sorted(digests.items()))


@pytest.mark.identity
def test_german_records_match_pins(tmp_path):
    pinned = json.loads(PINS.read_text())["records"]
    actual = record_digests(tmp_path)
    assert len(pinned) == 48
    assert actual.keys() == pinned.keys()
    moved = [key for key in pinned if actual[key] != pinned[key]]
    assert not moved, f"record bits moved in {moved}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        payload = {"config": CONFIG, "records": record_digests(Path(workdir))}
    PINS.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
