"""The resumable, streaming, sharded result store.

Every run (one trained-and-evaluated model pair) is stored as a flat
JSON-serialisable record under a deterministic key::

    {dataset}/{error_type}/{repair}/{model}/rep{repetition}/seed{seed}

The store can persist to disk and *resume*: re-running a study skips
every key already present. The key→value mapping is stable by
construction — each record embeds its own configuration fields — which
is precisely the reproducibility property whose violation the paper
reported (and fixed) in the original CleanML codebase.

Persistence is **sharded and streaming** (format ``sharded-v1``):

- ``{stem}.json`` is a small *manifest* listing one shard per
  ``(dataset, error_type)`` group: its file name, record count, key
  list and content checksum. Loading a store reads only the manifest,
  so opening a million-record study costs the key index, not the
  records.
- ``{stem}.store/{dataset}__{error_type}.{crc}.jsonl.gz`` holds the
  group's records as gzip-compressed, key-sorted, checksummed JSON
  lines. Shard files are content-addressed (the CRC-32 of the
  uncompressed body is embedded in the name) and therefore immutable:
  :meth:`ResultStore.save` writes *new* shard files for dirty groups,
  atomically swaps the manifest, and only then garbage-collects
  unreferenced shard files — a crash at any point leaves the previous
  manifest and every shard it references intact. Compression uses
  level 9, a zeroed gzip mtime and ``{file}.tmp`` in the gzip header's
  FNAME field, all part of the byte contract, so identical records
  always produce bit-identical shards (the parallel==serial
  byte-identity guarantee extends to the on-disk store).
- A save keeps a dirty group's compacted lines as they are, after
  checking the old shard's body CRC and line count against its
  manifest entry (a mismatch raises instead of rewriting the shard),
  and encodes only the new records. It therefore costs O(new records)
  of encoding plus one compression per dirty group. A run executor
  compresses a group as soon as the group's last planned unit has
  merged (:meth:`ResultStore.stage_shard`); the save writes those bytes
  unless the group gained records since.
- :meth:`ResultStore.iter_records` streams records in global key order
  holding at most one shard in memory; :meth:`records`,
  :meth:`distinct` and :meth:`verify` are built on the same lazy
  access, so reporting over a huge study never materialises it.

Legacy seed-era stores — a single monolithic ``{stem}.json`` with a
``records`` array — still load transparently (eagerly, as before); the
next :meth:`save` migrates them to the sharded layout, and
``python -m repro store-migrate`` does the same from the command line.

Incremental persistence uses an append-only JSONL journal: writers
(e.g. parallel study workers) append one record per line to shard
files named ``{stem}.jsonl`` or ``{stem}.{shard}.jsonl`` next to the
manifest. Loading a store replays any journal shards on top of the
compacted state, so a killed run resumes mid-shard without losing
completed records; :meth:`ResultStore.save` compacts everything into
the sharded store and removes the journals.

Every persisted payload — journal lines and shard lines alike —
carries a ``checksum`` field (CRC-32 of the canonical record JSON), so
torn writes and bit rot are detectable: replay skips lines whose
checksum does not match, and :meth:`ResultStore.verify` audits the
whole on-disk state (duplicate keys, conflicting payloads, orphan
shards, checksum mismatches, poisoned units) one shard at a time.
"""

from __future__ import annotations

import gzip
import io
import json
import os
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, NamedTuple

#: Manifest format tag of the sharded store layout.
STORE_FORMAT = "sharded-v1"


@dataclass(frozen=True)
class RunRecord:
    """One evaluated model pair (dirty vs repaired) for one run.

    Attributes:
        dataset: Dataset name.
        error_type: ``missing_values`` / ``outliers`` / ``mislabels``.
        detection: Detection-strategy name.
        repair: Repair-method name.
        model: Model name.
        repetition: Split index.
        tuning_seed: Hyperparameter-search seed index.
        metrics: Flat mapping of metric keys to values. Contains
            ``dirty_test_acc``, ``{repair}_test_acc``, the matching
            ``*_test_f1`` entries, ``best_params`` entries and the
            group-wise confusion counts in CleanML key style for both
            the dirty baseline (prefixed ``dirty``) and the repair.
    """

    dataset: str
    error_type: str
    detection: str
    repair: str
    model: str
    repetition: int
    tuning_seed: int
    metrics: dict[str, Any] = field(default_factory=dict)

    @property
    def key(self) -> str:
        """Deterministic store key for this record."""
        return (
            f"{self.dataset}/{self.error_type}/{self.detection}/{self.repair}"
            f"/{self.model}/rep{self.repetition}/seed{self.tuning_seed}"
        )

    def to_json(self) -> dict[str, Any]:
        """Serialisable representation."""
        return {
            "dataset": self.dataset,
            "error_type": self.error_type,
            "detection": self.detection,
            "repair": self.repair,
            "model": self.model,
            "repetition": self.repetition,
            "tuning_seed": self.tuning_seed,
            "metrics": self.metrics,
        }

    @staticmethod
    def from_json(payload: dict[str, Any]) -> "RunRecord":
        """Inverse of :meth:`to_json`."""
        return RunRecord(
            dataset=payload["dataset"],
            error_type=payload["error_type"],
            detection=payload["detection"],
            repair=payload["repair"],
            model=payload["model"],
            repetition=payload["repetition"],
            tuning_seed=payload["tuning_seed"],
            metrics=dict(payload["metrics"]),
        )


def record_checksum(payload: dict[str, Any]) -> str:
    """CRC-32 (8 hex digits) of the canonical JSON of a record payload.

    The ``checksum`` field itself is excluded, so the value is stable
    whether or not the payload already carries one.
    """
    body = {name: value for name, value in payload.items() if name != "checksum"}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return f"{zlib.crc32(canonical.encode('utf-8')):08x}"


def shard_line(record: RunRecord) -> bytes:
    """A record's canonical shard line: its checksummed payload as
    key-sorted, compact JSON, without the newline.

    Decoding a shard line and encoding the record again gives the same
    bytes, which is what lets :meth:`ResultStore.save` keep compacted
    lines as they are instead of re-encoding them.
    """
    payload = record.to_json()
    payload["checksum"] = record_checksum(payload)
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


def compress_shard(name: str, body: bytes) -> bytes:
    """The gzip bytes of shard file ``name`` holding ``body``.

    Level 9, a zeroed mtime and ``{name}.tmp`` in the header's FNAME
    field -- the name of the temporary file shards were first written
    through -- are all part of the pinned shard bytes.
    """
    buffer = io.BytesIO()
    with gzip.GzipFile(
        filename=f"{name}.tmp", fileobj=buffer, mode="wb", mtime=0, compresslevel=9
    ) as compressed:
        compressed.write(body)
    return buffer.getvalue()


def shard_group_of_key(key: str) -> tuple[str, str]:
    """The ``(dataset, error_type)`` shard group a record key belongs to.

    Derivable from the key alone because dataset and error-type names
    never contain ``/`` — the property that lets membership checks and
    single-record reads find the right shard without opening any.
    """
    dataset, error_type, _rest = key.split("/", 2)
    return dataset, error_type


def open_shard(path: Path):
    """Open a compressed shard file for streaming text-line reads.

    A module-level seam so tests can spy on shard opens (asserting
    that streaming readers never hold more than one shard at a time).
    """
    return gzip.open(path, "rt", encoding="utf-8")


def write_legacy_store(path: str | Path, records: list[RunRecord]) -> None:
    """Write a seed-era monolithic ``{stem}.json`` store.

    Only used by migration tests and tooling: production saves always
    write the sharded layout. The payload matches the pre-``sharded-v1``
    format byte for byte (checksummed records under a ``records`` key).
    """
    path = Path(path)
    payload = {
        "records": [
            {**body, "checksum": record_checksum(body)}
            for body in (
                record.to_json()
                for record in sorted(records, key=lambda r: r.key)
            )
        ]
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        json.dump(payload, handle, indent=1)


@dataclass(frozen=True)
class ShardInfo:
    """One manifest entry: a ``(dataset, error_type)`` group's shard.

    Attributes:
        dataset: Group dataset name.
        error_type: Group error type.
        file: Shard file name inside the store directory. Deliberately
            not a path: embedding the (stem-derived) directory name
            would make two otherwise-identical stores' manifests
            differ, breaking the byte-identity guarantee.
        crc: CRC-32 (8 hex digits) of the uncompressed shard body —
            also embedded in ``file``, making shards content-addressed.
        keys: Sorted record keys stored in the shard. The manifest is
            therefore a complete key index: membership and planning
            never open a shard.
    """

    dataset: str
    error_type: str
    file: str
    crc: str
    keys: tuple[str, ...]

    @property
    def group(self) -> tuple[str, str]:
        """The ``(dataset, error_type)`` group id."""
        return (self.dataset, self.error_type)

    def to_json(self) -> dict[str, Any]:
        return {
            "dataset": self.dataset,
            "error_type": self.error_type,
            "file": self.file,
            "crc": self.crc,
            "records": len(self.keys),
            "keys": list(self.keys),
        }

    @staticmethod
    def from_json(payload: dict[str, Any]) -> "ShardInfo":
        return ShardInfo(
            dataset=payload["dataset"],
            error_type=payload["error_type"],
            file=payload["file"],
            crc=payload["crc"],
            keys=tuple(payload["keys"]),
        )


class _StagedShard(NamedTuple):
    """A group's next shard, compressed ahead of :meth:`ResultStore.save`.

    Still valid while the group's pending keys are ``keys``: only a
    save changes a group's manifest entry, and it drops every staged
    shard.
    """

    keys: frozenset[str]
    info: ShardInfo
    data: bytes


def journal_files(store_path: str | Path) -> list[Path]:
    """Existing journal shard files of a store, sorted by name.

    ``{stem}.jsonl`` comes first, then every ``{stem}.*.jsonl`` except
    the sidecars that hold no records: ``{stem}.failures.jsonl``
    (poisoned work units, see :mod:`repro.benchmark.parallel`), the
    ``{stem}.trace*.jsonl`` observability shards (see :mod:`repro.obs`)
    and ``{stem}.ledger.jsonl``, which older versions wrote next to
    every store.
    """
    store_path = Path(store_path)
    stem = store_path.stem
    parent = store_path.parent
    sidecars = {f"{stem}.failures.jsonl", f"{stem}.ledger.jsonl"}
    paths = sorted(
        path
        for path in parent.glob(f"{stem}.*.jsonl")
        if path.name not in sidecars and not path.name.startswith(f"{stem}.trace.")
    )
    default = parent / f"{stem}.jsonl"
    if default.exists():
        paths.insert(0, default)
    return paths


def trace_files(store_path: str | Path) -> list[Path]:
    """Existing trace files of a store: the compacted
    ``{stem}.trace.jsonl`` first, then the per-worker shards
    ``{stem}.trace.*.jsonl`` sorted by name (see :mod:`repro.obs`)."""
    store_path = Path(store_path)
    stem = store_path.stem
    parent = store_path.parent
    main = parent / f"{stem}.trace.jsonl"
    paths = [main] if main.exists() else []
    paths.extend(sorted(parent.glob(f"{stem}.trace.*.jsonl")))
    return paths


def failures_file(store_path: str | Path) -> Path:
    """The store's poisoned-unit sidecar ``{stem}.failures.jsonl``."""
    store_path = Path(store_path)
    return store_path.parent / f"{store_path.stem}.failures.jsonl"


class JournalWriter:
    """Append-only JSONL writer for incremental record persistence.

    Each :meth:`write` appends one ``RunRecord.to_json()`` line
    (augmented with its ``checksum``) and flushes, so every completed
    record survives a crash of the writing process; with
    ``fsync=True`` every line is also fsynced to disk before
    :meth:`write` returns, surviving power loss as well. Usable as a
    context manager; the handle is closed (and therefore flushed) even
    when an exception is propagating out of the ``with`` block.

    When appending to a shard whose last write was torn (no trailing
    newline — the writer died mid-line), a newline is inserted first so
    the partial line stays isolated and replay skips exactly it.
    """

    def __init__(self, path: str | Path, fsync: bool = False) -> None:
        self._path = Path(path)
        self._fsync = fsync
        self._handle = None

    @property
    def path(self) -> Path:
        """The shard file this writer appends to."""
        return self._path

    @property
    def closed(self) -> bool:
        """Whether the underlying handle is closed (or never opened)."""
        return self._handle is None

    def _open(self):
        self._path.parent.mkdir(parents=True, exist_ok=True)
        needs_newline = False
        if self._path.exists() and self._path.stat().st_size > 0:
            with self._path.open("rb") as existing:
                existing.seek(-1, os.SEEK_END)
                needs_newline = existing.read(1) != b"\n"
        handle = self._path.open("a")
        if needs_newline:
            handle.write("\n")
        return handle

    def write(self, record: RunRecord) -> None:
        """Append one checksummed record as a JSON line and flush."""
        if self._handle is None:
            self._handle = self._open()
        payload = record.to_json()
        payload["checksum"] = record_checksum(payload)
        self._handle.write(json.dumps(payload) + "\n")
        self._handle.flush()
        if self._fsync:
            os.fsync(self._handle.fileno())

    def close(self) -> None:
        """Flush and close the underlying file handle (if ever opened)."""
        if self._handle is not None:
            try:
                self._handle.flush()
            finally:
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # close unconditionally: a propagating exception must not leave
        # journaled records sitting in userspace buffers
        self.close()


class ResultStore:
    """Result store with lazy sharded persistence.

    In-memory stores (no path) hold everything in a dict as before.
    Disk-backed stores keep only *pending* records (added this session
    or replayed from journals) plus the manifest's key index in
    memory; shard payloads load lazily, at most one at a time.
    """

    def __init__(self, path: str | Path | None = None) -> None:
        self._path = Path(path) if path is not None else None
        #: Records not yet compacted into a shard (in-memory adds,
        #: journal replays, and — for legacy stores — every record).
        self._pending: dict[str, RunRecord] = {}
        #: Manifest entries by (dataset, error_type) group.
        self._shards: dict[tuple[str, str], ShardInfo] = {}
        #: Union of all shard key lists (fast membership).
        self._shard_keys: set[str] = set()
        #: Single-entry shard cache: (group, {key: record}).
        self._cached_shard: tuple[tuple[str, str], dict[str, RunRecord]] | None = None
        #: Shards compressed ahead of the next save (:meth:`stage_shard`).
        self._staged: dict[tuple[str, str], _StagedShard] = {}
        #: True when loaded from a seed-era monolithic JSON file.
        self._legacy = False
        if self._path is not None:
            if self._path.exists():
                self._load()
            self.replay_journal()

    @property
    def path(self) -> Path | None:
        """The backing manifest path (None for in-memory stores)."""
        return self._path

    @property
    def store_dir(self) -> Path | None:
        """Directory holding the compressed record shards."""
        if self._path is None:
            return None
        return self._path.parent / f"{self._path.stem}.store"

    @property
    def is_legacy(self) -> bool:
        """True when the on-disk state is a monolithic seed-era file.

        The next :meth:`save` migrates it to the sharded layout.
        """
        return self._legacy

    def _load(self) -> None:
        assert self._path is not None
        with self._path.open("r") as handle:
            payload = json.load(handle)
        if isinstance(payload, dict) and payload.get("format") == STORE_FORMAT:
            for entry in payload["shards"]:
                info = ShardInfo.from_json(entry)
                self._shards[info.group] = info
                self._shard_keys.update(info.keys)
            return
        if isinstance(payload, dict) and "records" in payload:
            # legacy monolithic store: load eagerly (as the seed did);
            # every record is pending until a save migrates the layout
            self._legacy = True
            for record_payload in payload["records"]:
                record = RunRecord.from_json(record_payload)
                self._pending[record.key] = record
            return
        raise ValueError(
            f"{self._path}: neither a {STORE_FORMAT} manifest nor a "
            "legacy record store"
        )

    # -- shard access ----------------------------------------------------

    def _shard_path(self, info: ShardInfo) -> Path:
        directory = self.store_dir
        assert directory is not None
        return directory / info.file

    def _shard_records(self, group: tuple[str, str]) -> dict[str, RunRecord]:
        """Records of one shard, via a single-entry cache."""
        if self._cached_shard is not None and self._cached_shard[0] == group:
            return self._cached_shard[1]
        info = self._shards.get(group)
        if info is None:
            return {}
        records: dict[str, RunRecord] = {}
        with open_shard(self._shard_path(info)) as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                record = RunRecord.from_json(json.loads(line))
                records[record.key] = record
        self._cached_shard = (group, records)
        return records

    def _pending_by_group(self) -> dict[tuple[str, str], dict[str, RunRecord]]:
        groups: dict[tuple[str, str], dict[str, RunRecord]] = {}
        for key, record in self._pending.items():
            groups.setdefault(shard_group_of_key(key), {})[key] = record
        return groups

    def _iter_group_records(
        self,
        group: tuple[str, str],
        pending: dict[str, RunRecord] | None = None,
    ) -> Iterator[RunRecord]:
        """One group's records in key order (shard merged with pending)."""
        merged = dict(self._shard_records(group))
        if pending:
            merged.update(pending)
        for key in sorted(merged):
            yield merged[key]

    def _groups(self) -> list[tuple[str, str]]:
        """All (dataset, error_type) groups with any records, sorted.

        Sorted group order concatenated with in-group key order equals
        global key order, because a key starts with its group fields.
        """
        groups = set(self._shards)
        groups.update(shard_group_of_key(key) for key in self._pending)
        return sorted(groups)

    # -- JSONL journal ---------------------------------------------------

    def journal_paths(self) -> list[Path]:
        """Existing journal shard files for this store (see
        :func:`journal_files`)."""
        if self._path is None:
            return []
        return journal_files(self._path)

    @property
    def failures_path(self) -> Path | None:
        """Sidecar recording poisoned work units (None for in-memory)."""
        if self._path is None:
            return None
        return failures_file(self._path)

    # -- observability sidecars ------------------------------------------

    @property
    def trace_path(self) -> Path | None:
        """The compacted trace sidecar ``{stem}.trace.jsonl``."""
        if self._path is None:
            return None
        return self._path.parent / f"{self._path.stem}.trace.jsonl"

    def trace_paths(self) -> list[Path]:
        """Existing trace files for this store (see :func:`trace_files`)."""
        if self._path is None:
            return []
        return trace_files(self._path)

    def compact_trace(self) -> int:
        """Fold worker trace shards into the single ``trace.jsonl``.

        Mirrors the record-journal compaction in :meth:`save`: the
        parent's own span and point events keep their emission order,
        shard-origin events are appended after them in **sorted line
        order**, and ``metric`` counters are summed (see
        :func:`repro.obs.metrics.merge_metric_events`, which drops the
        other metric types older traces carry) and appended last; the
        result is written atomically and the worker shards are removed.
        Sorting the shard lines — rather than concatenating in
        shard-file order — makes the output byte-identical under any
        permutation of shard file names, whose ``w{pid}`` parts vary
        run to run.
        Returns the number of events in the compacted file (0 when
        there is nothing to compact). A no-op when no worker shards
        exist, so repeated saves leave a compacted trace untouched.
        """
        if self._path is None:
            return 0
        main = self.trace_path
        assert main is not None
        shards = [path for path in self.trace_paths() if path != main]
        if not shards:
            return 0
        from repro.obs import merge_metric_events, read_trace_events

        main_events = read_trace_events([main] if main.exists() else [])
        shard_events = read_trace_events(shards)
        metric_events = [
            event
            for event in main_events + shard_events
            if event.get("kind") == "metric"
        ]
        lines = [
            json.dumps(event, sort_keys=True, separators=(",", ":"))
            for event in main_events
            if event.get("kind") != "metric"
        ]
        lines.extend(
            sorted(
                json.dumps(event, sort_keys=True, separators=(",", ":"))
                for event in shard_events
                if event.get("kind") != "metric"
            )
        )
        for merged in merge_metric_events(metric_events):
            lines.append(
                json.dumps(
                    {"v": 1, "kind": "metric", **merged},
                    sort_keys=True,
                    separators=(",", ":"),
                )
            )
        tmp_path = main.with_name(main.name + ".tmp")
        try:
            with tmp_path.open("w") as handle:
                if lines:
                    handle.write("\n".join(lines) + "\n")
                handle.flush()
                os.fsync(handle.fileno())
            tmp_path.replace(main)
        except BaseException:
            tmp_path.unlink(missing_ok=True)
            raise
        for shard in shards:
            shard.unlink()
        return len(lines)

    def health(self):
        """Run-health summary from the trace + failures sidecars.

        Returns a :class:`repro.obs.RunHealth` folding the newest
        run's trace events (compacted and still-sharded alike) together
        with the poisoned-unit sidecar, without the clock fields
        :func:`repro.obs.scan_run` adds. A store produced without tracing (e.g.
        ``--no-trace``) yields an empty but well-formed summary whose
        ``untraced`` flag is set, so callers can distinguish "nothing
        happened" from "nothing was recorded".
        """
        from repro.obs import load_health

        trace_paths = self.trace_paths()
        health = load_health(trace_paths, self.failures_path)
        health.untraced = not trace_paths
        return health

    def journal_writer(self, shard: str | None = None) -> JournalWriter:
        """An append-only writer for this store's journal.

        ``shard`` distinguishes concurrent writers (e.g. one per worker
        process); the default shard is ``{stem}.jsonl``.
        """
        if self._path is None:
            raise RuntimeError("this ResultStore has no backing path")
        name = (
            f"{self._path.stem}.jsonl"
            if shard is None
            else f"{self._path.stem}.{shard}.jsonl"
        )
        return JournalWriter(self._path.parent / name)

    def replay_journal(self) -> int:
        """Replay journal shards on top of the current records.

        Records whose key is already present are skipped (they were
        compacted before the shard was removed, or merged in-memory);
        undecodable lines — typically a partial trailing line from a
        killed writer — and lines whose ``checksum`` does not match
        their content are ignored. Returns the number of records
        recovered. Safe to call repeatedly: parallel executors call it
        after a worker failure to recover every record the dead worker
        journaled before crashing.
        """
        recovered = 0
        for shard in self.journal_paths():
            with shard.open("r") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        payload = json.loads(line)
                        record = RunRecord.from_json(payload)
                    except (ValueError, KeyError, TypeError):
                        continue
                    checksum = payload.get("checksum")
                    if checksum is not None and checksum != record_checksum(payload):
                        continue
                    if record.key not in self:
                        self._pending[record.key] = record
                        recovered += 1
        return recovered

    # -- compaction ------------------------------------------------------

    def _shard_lines(self, info: ShardInfo) -> list[bytes]:
        """A compacted shard's lines, in the order of ``info.keys``.

        Raises :class:`ValueError` naming the file when the body's CRC
        or line count disagrees with the manifest entry: such a shard
        cannot be merged without losing or inventing records.
        """
        try:
            with self._shard_path(info).open("rb") as raw:
                body = gzip.decompress(raw.read())
        except (OSError, EOFError, zlib.error) as error:
            raise ValueError(f"{info.file}: unreadable shard file ({error})") from error
        lines = body.split(b"\n")
        unterminated = lines.pop()
        if f"{zlib.crc32(body):08x}" != info.crc:
            problem = "body CRC mismatch"
        elif unterminated or len(lines) != len(info.keys):
            problem = f"{len(lines)} lines for {len(info.keys)} listed keys"
        else:
            return lines
        raise ValueError(
            f"{info.file}: shard disagrees with its manifest entry ({problem}); "
            "nothing was saved"
        )

    def _compress_group(
        self, group: tuple[str, str], pending: dict[str, RunRecord]
    ) -> tuple[ShardInfo, bytes]:
        """A group's next shard: its manifest entry and gzip bytes.

        The compacted lines are kept as they are; only ``pending``
        records are encoded.
        """
        lines: dict[str, bytes] = {}
        base = self._shards.get(group)
        if base is not None:
            lines.update(zip(base.keys, self._shard_lines(base)))
        for key, record in pending.items():
            lines[key] = shard_line(record)
        keys = tuple(sorted(lines))
        body = b"\n".join(lines[key] for key in keys) + b"\n"
        crc = f"{zlib.crc32(body):08x}"
        dataset, error_type = group
        name = f"{dataset}__{error_type}.{crc}.jsonl.gz"
        info = ShardInfo(dataset, error_type, file=name, crc=crc, keys=keys)
        return info, compress_shard(name, body)

    def stage_shard(self, group: tuple[str, str]) -> None:
        """Compress a group's next shard now, for the next :meth:`save`.

        Run executors call this once the last planned unit of ``group``
        has merged, so the compression overlaps work still running
        elsewhere. Nothing touches disk: :meth:`save` writes the staged
        bytes if the group's pending keys have not changed since, and
        compresses the group again otherwise. Raises
        :class:`ValueError` as :meth:`save` does for a shard that
        disagrees with its manifest entry.
        """
        pending = self._pending_by_group().get(group)
        if pending:
            self._staged[group] = _StagedShard(
                frozenset(pending), *self._compress_group(group, pending)
            )

    def _write_shard(self, info: ShardInfo, data: bytes) -> Path:
        """Write one content-addressed shard file atomically.

        The file name embeds the body CRC, so a shard is never
        overwritten in place: an identical body maps to the identical
        file (rewriting it is a no-op), a different body maps to a new
        file, and the old one stays valid until the manifest stops
        referencing it.
        """
        assert self.store_dir is not None
        path = self._shard_path(info)
        self.store_dir.mkdir(parents=True, exist_ok=True)
        tmp_path = path.with_name(path.name + ".tmp")
        try:
            with tmp_path.open("wb") as raw:
                raw.write(data)
                raw.flush()
                os.fsync(raw.fileno())
            tmp_path.replace(path)
        except BaseException:
            tmp_path.unlink(missing_ok=True)
            raise
        return path

    def _gc_store_dir(self) -> None:
        """Remove shard files no manifest entry references anymore."""
        directory = self.store_dir
        if directory is None or not directory.exists():
            return
        referenced = {self._shard_path(info) for info in self._shards.values()}
        for path in directory.glob("*.jsonl.gz"):
            if path not in referenced:
                path.unlink()

    def save(self) -> None:
        """Compact all records into the sharded store.

        Journal shards are replayed one final time (so records
        journaled by workers but never merged in-memory — e.g. from a
        crashed-and-poisoned unit — cannot be lost), every dirty
        ``(dataset, error_type)`` group is written as a fresh
        content-addressed shard file, and the manifest is atomically
        renamed over ``{stem}.json``; only then are the journal shards
        removed and unreferenced shard files garbage-collected. A
        crash at any point mid-compaction therefore leaves either the
        old or the new store intact, never a partial one, and never
        drops a journaled record. Groups without new records keep
        their existing shard files untouched. A group with new records
        gets a new shard: its compacted lines are kept byte for byte
        and merged in key order with the encoded new records, so a
        save costs O(new records) of encoding plus one compression per
        dirty group -- none at all for a group staged by
        :meth:`stage_shard` whose pending keys have not changed since.
        A group whose old shard disagrees with its manifest entry
        (body CRC or line count) raises :class:`ValueError` naming the
        shard file, before the manifest is touched, instead of
        rewriting it without the records it lost.

        A legacy monolithic store is migrated to the sharded layout by
        its first save (the manifest replaces the old file in the same
        atomic rename).
        """
        if self._path is None:
            raise RuntimeError("this ResultStore has no backing path")
        self.replay_journal()
        pending_groups = self._pending_by_group()
        written: dict[tuple[str, str], ShardInfo] = {}
        new_paths: list[Path] = []
        try:
            for group in sorted(pending_groups):
                pending = pending_groups[group]
                staged = self._staged.get(group)
                if staged is not None and staged.keys == pending.keys():
                    info, data = staged.info, staged.data
                else:
                    info, data = self._compress_group(group, pending)
                new_paths.append(self._write_shard(info, data))
                written[group] = info
            manifest_shards = {**self._shards, **written}
            payload = {
                "format": STORE_FORMAT,
                "shards": [
                    manifest_shards[group].to_json()
                    for group in sorted(manifest_shards)
                ],
            }
            self._path.parent.mkdir(parents=True, exist_ok=True)
            tmp_path = self._path.with_name(self._path.name + ".tmp")
            try:
                with tmp_path.open("w") as handle:
                    json.dump(payload, handle, indent=1, sort_keys=True)
                    handle.flush()
                    os.fsync(handle.fileno())
                tmp_path.replace(self._path)
            except BaseException:
                tmp_path.unlink(missing_ok=True)
                raise
        except BaseException:
            # an uncommitted save must leave no half-written shards; the
            # previous manifest still references only the old files
            for path in new_paths:
                if path not in {
                    self._shard_path(info) for info in self._shards.values()
                }:
                    path.unlink(missing_ok=True)
            raise
        self._shards = dict(manifest_shards)
        self._shard_keys.update(self._pending)
        self._pending.clear()
        self._staged.clear()
        self._cached_shard = None
        self._legacy = False
        for shard in self.journal_paths():
            shard.unlink()
        self._gc_store_dir()
        self.compact_trace()

    # -- verification ----------------------------------------------------

    def verify(self) -> list[str]:
        """Audit the on-disk state; returns human-readable violations.

        Checks, across the manifest, every record shard (streamed one
        at a time — verification memory is O(keys), never O(records))
        and every journal shard:

        - per-record checksum mismatches,
        - the same key persisted with *conflicting* payloads anywhere
          (identical re-journaled copies from a retried worker are
          benign and not flagged),
        - duplicate keys inside a shard or the legacy compacted file,
        - shard contents disagreeing with the manifest (missing files,
          key-set drift, body CRC mismatch, records filed under the
          wrong ``(dataset, error_type)`` group),
        - undecodable journal lines other than a torn trailing line,
        - orphan journal shards — shards fully contained in the
          compacted store, i.e. a compaction that crashed between
          rename and cleanup — and orphan shard files no manifest
          entry references,
        - a non-empty ``{stem}.failures.jsonl`` sidecar (poisoned work
          units mean the study is incomplete).

        An empty list means the persisted study is internally
        consistent. In-memory stores trivially verify clean. Legacy
        monolithic stores are audited with the same checks against
        their single ``records`` array.
        """
        issues: list[str] = []
        if self._path is None:
            return issues
        # key -> CRC-32 of its canonical body: conflict detection without
        # holding any record payloads in memory
        canonical: dict[str, int] = {}

        def canonical_crc(payload: dict[str, Any]) -> int:
            body = {k: v for k, v in payload.items() if k != "checksum"}
            return zlib.crc32(
                json.dumps(body, sort_keys=True, separators=(",", ":")).encode(
                    "utf-8"
                )
            )

        def check_payload(payload: dict[str, Any], where: str) -> str | None:
            checksum = payload.get("checksum")
            if checksum is not None and checksum != record_checksum(payload):
                issues.append(f"{where}: checksum mismatch")
                return None
            try:
                key = RunRecord.from_json(payload).key
            except (KeyError, TypeError, ValueError):
                issues.append(f"{where}: not a record payload")
                return None
            crc = canonical_crc(payload)
            if key in canonical and canonical[key] != crc:
                issues.append(f"{where}: conflicting payloads for key {key!r}")
            canonical.setdefault(key, crc)
            return key

        seen: set[str] = set()
        manifest: dict[tuple[str, str], ShardInfo] = {}
        if self._path.exists():
            try:
                with self._path.open("r") as handle:
                    compacted = json.load(handle)
            except ValueError:
                issues.append(f"{self._path.name}: unreadable store file")
                compacted = {}
            if isinstance(compacted, dict) and compacted.get("format") == STORE_FORMAT:
                for entry in compacted.get("shards", ()):
                    try:
                        manifest_info = ShardInfo.from_json(entry)
                    except (KeyError, TypeError):
                        issues.append(
                            f"{self._path.name}: malformed shard entry"
                        )
                        continue
                    manifest[manifest_info.group] = manifest_info
                issues.extend(self._verify_shards(manifest, check_payload, seen))
            elif isinstance(compacted, dict) and "records" in compacted:
                for index, payload in enumerate(compacted["records"]):
                    where = f"{self._path.name}: record {index}"
                    key = check_payload(payload, where)
                    if key is None:
                        continue
                    if key in seen:
                        issues.append(f"{where}: duplicate key {key!r}")
                    seen.add(key)
            elif compacted:
                issues.append(f"{self._path.name}: unreadable store file")
        for shard in self.journal_paths():
            lines = shard.read_text().splitlines()
            shard_keys: list[str] = []
            for index, line in enumerate(lines):
                if not line.strip():
                    continue
                where = f"{shard.name}: line {index + 1}"
                try:
                    payload = json.loads(line)
                except ValueError:
                    if index == len(lines) - 1:
                        continue  # torn trailing write, skipped at replay
                    issues.append(f"{where}: undecodable journal line")
                    continue
                key = check_payload(payload, where)
                if key is not None:
                    shard_keys.append(key)
            if shard_keys and seen and all(key in seen for key in shard_keys):
                issues.append(
                    f"{shard.name}: orphan shard (all {len(shard_keys)} "
                    "records already compacted)"
                )
        failures = self.failures_path
        if failures is not None and failures.exists():
            poisoned = [
                line for line in failures.read_text().splitlines() if line.strip()
            ]
            if poisoned:
                issues.append(
                    f"{failures.name}: {len(poisoned)} poisoned work unit(s) "
                    "recorded — study incomplete"
                )
        return issues

    def _verify_shards(self, manifest, check_payload, seen) -> list[str]:
        """Audit every manifest shard, streaming one file at a time."""
        issues: list[str] = []
        for group in sorted(manifest):
            info = manifest[group]
            path = self._shard_path(info)
            if not path.exists():
                issues.append(f"{info.file}: missing shard file")
                continue
            shard_seen: set[str] = set()
            body = b""
            try:
                with path.open("rb") as raw:
                    body = gzip.decompress(raw.read())
            except (OSError, gzip.BadGzipFile):
                issues.append(f"{info.file}: unreadable shard file")
                continue
            if f"{zlib.crc32(body):08x}" != info.crc:
                issues.append(f"{info.file}: shard body CRC mismatch")
            for index, line in enumerate(body.decode("utf-8").splitlines()):
                if not line.strip():
                    continue
                where = f"{info.file}: record {index}"
                try:
                    payload = json.loads(line)
                except ValueError:
                    issues.append(f"{where}: undecodable shard line")
                    continue
                key = check_payload(payload, where)
                if key is None:
                    continue
                if key in shard_seen or key in seen:
                    issues.append(f"{where}: duplicate key {key!r}")
                if shard_group_of_key(key) != group:
                    issues.append(
                        f"{where}: key {key!r} filed under shard group "
                        f"{group[0]}/{group[1]}"
                    )
                shard_seen.add(key)
            if shard_seen != set(info.keys):
                issues.append(
                    f"{info.file}: shard keys disagree with manifest "
                    f"({len(shard_seen)} on disk, {len(info.keys)} listed)"
                )
            seen.update(shard_seen)
        directory = self.store_dir
        if directory is not None and directory.exists():
            referenced = {directory / info.file for info in manifest.values()}
            for path in sorted(directory.glob("*.jsonl.gz")):
                if path not in referenced:
                    issues.append(
                        f"{directory.name}/{path.name}: orphan shard file "
                        "(not referenced by the manifest)"
                    )
        return issues

    # -- record access ---------------------------------------------------

    def add(self, record: RunRecord) -> None:
        """Insert a record; duplicate keys are rejected."""
        if record.key in self:
            raise ValueError(f"duplicate record key {record.key!r}")
        self._pending[record.key] = record

    def __contains__(self, key: str) -> bool:
        return key in self._pending or key in self._shard_keys

    def __len__(self) -> int:
        return len(self._pending) + len(self._shard_keys)

    def get(self, key: str) -> RunRecord:
        """Fetch a record by key (loading at most one shard)."""
        if key in self._pending:
            return self._pending[key]
        if key in self._shard_keys:
            return self._shard_records(shard_group_of_key(key))[key]
        raise KeyError(f"no record {key!r}")

    def iter_records(self) -> Iterator[RunRecord]:
        """Stream every record in global key order.

        Holds at most one shard's records in memory at a time: shard
        groups are visited in sorted order and each shard is loaded,
        merged with that group's pending records, yielded and released
        before the next one is touched.
        """
        pending_groups = self._pending_by_group()
        for group in self._groups():
            yield from self._iter_group_records(group, pending_groups.get(group))

    def records(self, **filters: Any) -> Iterator[RunRecord]:
        """Iterate records matching the given field filters.

        Example: ``store.records(dataset="german", error_type="outliers")``.
        Streams shard by shard; ``dataset`` / ``error_type`` filters
        skip non-matching shards without opening them.
        """
        valid = {
            "dataset",
            "error_type",
            "detection",
            "repair",
            "model",
            "repetition",
            "tuning_seed",
        }
        unknown = set(filters) - valid
        if unknown:
            raise ValueError(f"unknown filters: {sorted(unknown)}")
        want_dataset = filters.get("dataset")
        want_error_type = filters.get("error_type")
        pending_groups = self._pending_by_group()
        for group in self._groups():
            if want_dataset is not None and group[0] != want_dataset:
                continue
            if want_error_type is not None and group[1] != want_error_type:
                continue
            for record in self._iter_group_records(group, pending_groups.get(group)):
                if all(
                    getattr(record, name) == value
                    for name, value in filters.items()
                ):
                    yield record

    def distinct(self, fieldname: str) -> list[Any]:
        """Sorted distinct values of a record field.

        ``dataset`` and ``error_type`` come straight from the shard
        index; other fields stream the store.
        """
        if fieldname == "dataset":
            return sorted({group[0] for group in self._groups()})
        if fieldname == "error_type":
            return sorted({group[1] for group in self._groups()})
        return sorted({getattr(record, fieldname) for record in self.iter_records()})
