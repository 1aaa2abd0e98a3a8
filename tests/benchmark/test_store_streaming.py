"""Streaming and migration behaviour of the sharded result store."""

import gzip
import json
import re
from collections import Counter

import pytest

from repro.benchmark import ResultStore, RunRecord, write_legacy_store
from repro.benchmark import results as results_module
from repro.testing.fixtures import store_fingerprint


def make_record(dataset="german", error_type="mislabels", repetition=0, repair="flip_labels"):
    return RunRecord(
        dataset=dataset,
        error_type=error_type,
        detection="cleanlab",
        repair=repair,
        model="log_reg",
        repetition=repetition,
        tuning_seed=0,
        metrics={"dirty_test_acc": 0.7, f"{repair}_test_acc": 0.72},
    )


def multi_shard_store(path, n_groups=4, reps_per_group=3):
    """A saved store with ``n_groups`` (dataset, error_type) shards."""
    store = ResultStore(path)
    datasets = ("adult", "credit", "german", "heart")[:n_groups]
    for dataset in datasets:
        for repetition in range(reps_per_group):
            store.add(make_record(dataset=dataset, repetition=repetition))
    store.save()
    return datasets


class ShardOpenSpy:
    """Counts open shards and the maximum concurrently-open handles."""

    def __init__(self, real_open):
        self._real_open = real_open
        self.opens = []
        self.live = 0
        self.max_live = 0

    def __call__(self, path):
        handle = self._real_open(path)
        self.opens.append(path.name)
        self.live += 1
        self.max_live = max(self.max_live, self.live)
        spy = self
        original_close = handle.close

        def counted_close():
            if not handle.closed:
                spy.live -= 1
            original_close()

        handle.close = counted_close
        return handle


@pytest.fixture
def shard_spy(monkeypatch):
    spy = ShardOpenSpy(results_module.open_shard)
    monkeypatch.setattr(results_module, "open_shard", spy)
    return spy


def test_iter_records_streams_one_shard_at_a_time(tmp_path, shard_spy):
    path = tmp_path / "study.json"
    datasets = multi_shard_store(path, n_groups=4)
    store = ResultStore(path)
    seen = [record.key for record in store.iter_records()]
    assert len(seen) == 4 * 3
    assert seen == sorted(seen), "iter_records must yield global key order"
    assert len(shard_spy.opens) == 4, "each shard opened exactly once"
    assert shard_spy.max_live == 1, (
        "streaming must never hold more than one shard open"
    )
    assert [name.split("__")[0] for name in shard_spy.opens] == sorted(datasets)


def test_records_filter_skips_non_matching_shards(tmp_path, shard_spy):
    path = tmp_path / "study.json"
    multi_shard_store(path, n_groups=4)
    store = ResultStore(path)
    matched = list(store.records(dataset="german"))
    assert len(matched) == 3
    assert len(shard_spy.opens) == 1
    assert shard_spy.opens[0].startswith("german__mislabels.")


def test_get_loads_only_the_owning_shard(tmp_path, shard_spy):
    path = tmp_path / "study.json"
    multi_shard_store(path, n_groups=3)
    store = ResultStore(path)
    record = store.get(make_record(dataset="credit", repetition=1).key)
    assert record.dataset == "credit"
    assert len(shard_spy.opens) == 1
    assert shard_spy.opens[0].startswith("credit__")


def test_membership_and_len_never_open_shards(tmp_path, shard_spy):
    path = tmp_path / "study.json"
    multi_shard_store(path, n_groups=3)
    store = ResultStore(path)
    assert make_record(dataset="adult").key in store
    assert "nope/mislabels/x/y/z/rep0/seed0" not in store
    assert len(store) == 9
    assert store.distinct("dataset") == ["adult", "credit", "german"]
    assert store.distinct("error_type") == ["mislabels"]
    assert shard_spy.opens == []


def test_incremental_save_rewrites_only_dirty_shards(tmp_path):
    path = tmp_path / "study.json"
    multi_shard_store(path, n_groups=3)
    store_dir = tmp_path / "study.store"
    before = {p.name: p.stat().st_mtime_ns for p in store_dir.glob("*.jsonl.gz")}
    store = ResultStore(path)
    store.add(make_record(dataset="german", repetition=7))
    store.save()
    after = {p.name for p in store_dir.glob("*.jsonl.gz")}
    unchanged = {name for name in before if name in after}
    assert len(unchanged) == 2, "only the german shard should be replaced"
    assert all(name.startswith(("adult", "credit")) for name in unchanged)


def test_save_garbage_collects_replaced_shard_files(tmp_path):
    path = tmp_path / "study.json"
    multi_shard_store(path, n_groups=1)
    store = ResultStore(path)
    store.add(make_record(dataset="adult", repetition=9))
    store.save()
    shards = list((tmp_path / "study.store").glob("adult__*.jsonl.gz"))
    assert len(shards) == 1, "the superseded shard file must be removed"
    assert ResultStore(path).verify() == []


# -- legacy migration ---------------------------------------------------


def test_legacy_store_loads_and_verifies_clean(tmp_path):
    path = tmp_path / "study.json"
    records = [make_record(repetition=i) for i in range(3)]
    write_legacy_store(path, records)
    store = ResultStore(path)
    assert store.is_legacy
    assert len(store) == 3
    assert [r.key for r in store.iter_records()] == sorted(r.key for r in records)
    assert store.verify() == []


def test_save_migrates_legacy_store_to_sharded_layout(tmp_path):
    path = tmp_path / "study.json"
    write_legacy_store(
        path,
        [make_record(dataset=d, repetition=i) for d in ("adult", "german") for i in range(2)],
    )
    store = ResultStore(path)
    store.save()
    assert not store.is_legacy
    manifest = json.loads(path.read_text())
    assert manifest["format"] == "sharded-v1"
    assert len(manifest["shards"]) == 2
    reloaded = ResultStore(path)
    assert len(reloaded) == 4
    assert reloaded.verify() == []


def test_migrated_store_is_byte_identical_to_natively_sharded(tmp_path):
    records = [
        make_record(dataset=d, repetition=i)
        for d in ("adult", "german")
        for i in range(2)
    ]
    legacy_path = tmp_path / "legacy" / "study.json"
    legacy_path.parent.mkdir()
    write_legacy_store(legacy_path, records)
    migrated = ResultStore(legacy_path)
    migrated.save()

    native_path = tmp_path / "native" / "study.json"
    native_path.parent.mkdir()
    native = ResultStore(native_path)
    for record in records:
        native.add(record)
    native.save()

    assert legacy_path.read_bytes() == native_path.read_bytes()
    legacy_shards = sorted((tmp_path / "legacy" / "study.store").glob("*.jsonl.gz"))
    native_shards = sorted((tmp_path / "native" / "study.store").glob("*.jsonl.gz"))
    assert [p.name for p in legacy_shards] == [p.name for p in native_shards]
    for a, b in zip(legacy_shards, native_shards):
        assert a.read_bytes() == b.read_bytes()


def test_unrecognised_store_payload_is_rejected(tmp_path):
    path = tmp_path / "study.json"
    path.write_text(json.dumps({"format": "who-knows-v9"}))
    with pytest.raises(ValueError, match="neither"):
        ResultStore(path)


def test_verify_flags_shard_key_drift(tmp_path):
    """A shard whose manifest entry lists keys not on disk is flagged."""
    path = tmp_path / "study.json"
    multi_shard_store(path, n_groups=1)
    manifest = json.loads(path.read_text())
    manifest["shards"][0]["keys"].append(
        "adult/mislabels/cleanlab/flip_labels/log_reg/rep99/seed0"
    )
    path.write_text(json.dumps(manifest))
    violations = ResultStore(path).verify()
    assert any("disagree with manifest" in v for v in violations)


def test_verify_flags_missing_and_orphan_shard_files(tmp_path):
    path = tmp_path / "study.json"
    multi_shard_store(path, n_groups=2)
    store_dir = tmp_path / "study.store"
    shards = sorted(store_dir.glob("*.jsonl.gz"))
    orphan = store_dir / "zzz__outliers.deadbeef.jsonl.gz"
    shards[0].rename(orphan)
    violations = ResultStore(path).verify()
    assert any("missing shard file" in v for v in violations)
    assert any("orphan shard file" in v for v in violations)


def test_verify_flags_shard_crc_mismatch(tmp_path):
    path = tmp_path / "study.json"
    multi_shard_store(path, n_groups=1)
    manifest = json.loads(path.read_text())
    manifest["shards"][0]["crc"] = "00000000"
    # keep the file name pointing at the real shard
    path.write_text(json.dumps(manifest))
    violations = ResultStore(path).verify()
    assert any("CRC mismatch" in v for v in violations)


# -- compaction ------------------------------------------------------------


def test_save_refuses_a_shard_that_disagrees_with_its_manifest(tmp_path):
    """A shard rewritten behind the manifest's back (here: valid gzip
    without rep 0's line) must not be merged into a fresh shard that
    silently drops the record; the previous store keeps its bytes."""
    path = tmp_path / "study.json"
    store = ResultStore(path)
    for repetition in range(3):
        store.add(make_record(error_type="outliers", repetition=repetition))
    store.save()
    (shard,) = (tmp_path / "study.store").glob("*.jsonl.gz")
    lines = gzip.decompress(shard.read_bytes()).splitlines(keepends=True)
    shard.write_bytes(gzip.compress(b"".join(lines[1:])))
    violations = ResultStore(path).verify()
    assert any("CRC mismatch" in v for v in violations)
    assert any("disagree with manifest" in v for v in violations)
    before = store_fingerprint(path)

    store = ResultStore(path)
    store.add(make_record(error_type="outliers", repetition=3))
    with pytest.raises(ValueError, match=re.escape(shard.name)):
        store.save()
    assert store_fingerprint(path) == before
    assert list((tmp_path / "study.store").iterdir()) == [shard]


def test_save_reuses_compacted_lines_without_decoding_them(tmp_path, monkeypatch):
    """Only new records are encoded: the compacted ones stay lines."""
    path = tmp_path / "study.json"
    multi_shard_store(path, n_groups=2)
    store = ResultStore(path)
    for dataset in ("adult", "credit"):
        store.add(make_record(dataset=dataset, repetition=7))
    calls = Counter()
    from_json = RunRecord.from_json
    shard_records = ResultStore._shard_records

    def counted_from_json(payload):
        calls["from_json"] += 1
        return from_json(payload)

    def counted_shard_records(self, group):
        calls["_shard_records"] += 1
        return shard_records(self, group)

    monkeypatch.setattr(RunRecord, "from_json", staticmethod(counted_from_json))
    monkeypatch.setattr(ResultStore, "_shard_records", counted_shard_records)
    store.save()
    monkeypatch.undo()
    assert calls == {}
    reloaded = ResultStore(path)
    assert len(reloaded) == 8
    assert reloaded.verify() == []


def test_staged_group_that_gains_a_record_is_compressed_again(tmp_path, monkeypatch):
    """A record journaled after its group was staged (as a worker's
    journal is replayed after a unit failure) is not lost: save sees
    the changed key set and compresses that group once more. The bytes
    equal those of one save of every record, the path the golden store
    pins."""
    path = tmp_path / "grown" / "study.json"
    records = [
        make_record(dataset=d, repetition=r) for d in ("adult", "german") for r in range(3)
    ]
    late = make_record(dataset="german", repetition=3)
    store = ResultStore(path)
    for record in records[:2] + records[3:5]:
        store.add(record)
    store.save()
    store.add(records[2])
    store.add(records[5])
    compressed = []
    compress = results_module.compress_shard

    def counted(name, body):
        compressed.append(name.split(".")[0])
        return compress(name, body)

    monkeypatch.setattr(results_module, "compress_shard", counted)
    store.stage_shard(("adult", "mislabels"))
    store.stage_shard(("german", "mislabels"))
    with store.journal_writer(shard="w1") as journal:
        journal.write(late)
    store.save()
    assert Counter(compressed) == {"adult__mislabels": 1, "german__mislabels": 2}
    one = ResultStore(tmp_path / "one" / "study.json")
    for record in records + [late]:
        one.add(record)
    one.save()
    assert store_fingerprint(path) == store_fingerprint(one.path)
