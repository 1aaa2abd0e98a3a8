"""Zero-copy dataset transport over POSIX shared memory.

The study grid ships every generated dataset to every worker. The
default ("pickle") transport serialises the whole :class:`Table` into
each task, costing O(dataset x units) bytes of copying; this module
publishes each dataset **once** into ``multiprocessing.shared_memory``
segments and hands workers a tiny picklable :class:`TableRef` instead.
Workers attach by segment name and reconstruct the table as zero-copy
numpy views — no per-task serialisation, no per-worker regeneration,
one physical copy of the data regardless of worker count.

Layout — two segments per table, both written by the parent before any
worker sees the ref and read-only ever after:

- the *numeric block*: all float64 columns stacked as one C-order
  ``(n_numeric_columns, n_rows)`` array (NaN = missing). Workers take
  row-slices of a view over the segment buffer, so a column costs a
  16-byte view object, not a copy.
- the *code block*: all categorical columns as one ``(n_categorical,
  n_rows)`` int32 array of dictionary codes with their per-column
  string pools carried (pickled, they are tiny) inside the ref;
  ``-1`` = missing. Since tables store categorical columns as int32
  codes natively, publishing is a straight ``memcpy`` of each codes
  array and attachment wraps zero-copy row views back into
  :class:`~repro.tabular.encoding.CategoricalColumn` objects — the
  transport performs no encoding and no string materialisation at
  all.

Lifecycle — the parent owns every segment. :class:`ShmRegistry` leases
a published table to each work unit that needs it and unlinks the
segments when the last lease is released (unit merged, recovered or
poisoned) or, unconditionally, when the registry closes — including
on crash paths, so no ``/dev/shm`` segment outlives the study run.
Workers only ever ``close()`` their attachment; they never unlink.

Availability — POSIX shared memory plus the ``fork`` start method
(CPython < 3.13 registers segments with the per-process resource
tracker on *attach* as well as create, bpo-39959; under fork all
processes share the parent's tracker and double-registration is
harmless, but a spawned worker's own tracker would unlink segments it
merely attached when the worker exits). :func:`shared_memory_available`
probes both; the executor's ``auto`` transport falls back to pickle
when the probe fails.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any

import numpy as np

from repro import obs
from repro.tabular.encoding import CategoricalColumn
from repro.tabular.schema import ColumnKind, Schema
from repro.tabular.table import Table

#: Names of every segment created by this process and not yet
#: unlinked. Purely observational (tests assert emptiness after runs);
#: cleanup itself is the ShmRegistry's job.
_LIVE_SEGMENTS: set[str] = set()


def live_segment_names() -> frozenset[str]:
    """Names of segments this process created and has not unlinked."""
    return frozenset(_LIVE_SEGMENTS)


def shared_memory_available() -> bool:
    """Probe whether the shm transport can be used on this platform.

    Requires working POSIX shared memory *and* the ``fork`` start
    method (see the module docstring for why spawn is unsafe before
    CPython 3.13).
    """
    if "fork" not in multiprocessing.get_all_start_methods():
        return False
    try:
        probe = shared_memory.SharedMemory(create=True, size=1)
    except (OSError, ValueError):
        return False
    try:
        probe.close()
    finally:
        try:
            probe.unlink()
        except OSError:
            pass
    return True


@dataclass(frozen=True)
class TableRef:
    """A picklable handle to a table published in shared memory.

    Attributes:
        schema: The table's schema (plain dataclasses, cheap to pickle).
        n_rows: Row count (segment shapes are derived from it).
        numeric_names: Numeric column names in numeric-block row order.
        numeric_segment: Segment name of the numeric block (None when
            the table has no numeric columns).
        categorical_names: Categorical column names in code-block row
            order.
        codes_segment: Segment name of the code block (None when the
            table has no categorical columns).
        categories: Per categorical column, the string pool its codes
            index into (missing is code -1, not a pool entry); exactly
            the column's native ``CategoricalColumn.pool``.
    """

    schema: Schema
    n_rows: int
    numeric_names: tuple[str, ...]
    numeric_segment: str | None
    categorical_names: tuple[str, ...]
    codes_segment: str | None
    categories: tuple[tuple[str, ...], ...]

    @property
    def segment_names(self) -> tuple[str, ...]:
        """All segment names backing this ref."""
        return tuple(
            name
            for name in (self.numeric_segment, self.codes_segment)
            if name is not None
        )


def _create_segment(nbytes: int) -> shared_memory.SharedMemory:
    # zero-byte segments are invalid; a 1-byte one keeps the code path
    # uniform for degenerate (empty) tables
    segment = shared_memory.SharedMemory(create=True, size=max(1, nbytes))
    _LIVE_SEGMENTS.add(segment.name)
    return segment


def publish_table(table: Table) -> tuple[TableRef, list[shared_memory.SharedMemory]]:
    """Publish a table's columns into shared-memory segments.

    Returns the picklable ref plus the created segment handles; the
    caller (normally :class:`ShmRegistry`) owns the handles and must
    eventually :func:`unlink_segments` them. The published bytes are a
    faithful copy: attaching reconstructs a table compare-equal to the
    original, which is what keeps the byte-identity guarantee intact
    across transports.
    """
    schema = table.schema
    numeric_names = tuple(
        spec.name for spec in schema.columns if spec.kind is ColumnKind.NUMERIC
    )
    categorical_names = tuple(
        spec.name
        for spec in schema.columns
        if spec.kind is ColumnKind.CATEGORICAL
    )
    n_rows = table.n_rows
    segments: list[shared_memory.SharedMemory] = []
    numeric_segment = None
    if numeric_names:
        block_shape = (len(numeric_names), n_rows)
        segment = _create_segment(
            int(np.dtype(np.float64).itemsize * len(numeric_names) * n_rows)
        )
        segments.append(segment)
        numeric_segment = segment.name
        block = np.ndarray(block_shape, dtype=np.float64, buffer=segment.buf)
        for row, name in enumerate(numeric_names):
            block[row, :] = table._column_view(name)
    codes_segment = None
    categories: list[tuple[str, ...]] = []
    if categorical_names:
        block_shape = (len(categorical_names), n_rows)
        segment = _create_segment(
            int(np.dtype(np.int32).itemsize * len(categorical_names) * n_rows)
        )
        segments.append(segment)
        codes_segment = segment.name
        block = np.ndarray(block_shape, dtype=np.int32, buffer=segment.buf)
        for row, name in enumerate(categorical_names):
            column = table.categorical(name)
            block[row, :] = column.codes
            categories.append(column.pool)
    ref = TableRef(
        schema=schema,
        n_rows=n_rows,
        numeric_names=numeric_names,
        numeric_segment=numeric_segment,
        categorical_names=categorical_names,
        codes_segment=codes_segment,
        categories=tuple(categories),
    )
    obs.counter("shm_segments_published", len(segments))
    obs.counter(
        "shm_bytes_published", float(sum(segment.size for segment in segments))
    )
    return ref, segments


def attach_table(ref: TableRef) -> tuple[Table, list[shared_memory.SharedMemory]]:
    """Attach to a published table and rebuild zero-copy column views.

    Numeric columns are read-only views straight into the segment
    buffer (no copy); categorical columns wrap read-only int32 code
    views in :class:`CategoricalColumn` objects over the pools carried
    by the ref — also zero-copy, since codes are the table's native
    representation. The returned segment handles must stay referenced
    as long as the table is used — dropping them lets the mmap close
    under the live views — and must be ``close()``d, never unlinked,
    by the attaching process.
    """
    columns: dict[str, np.ndarray | CategoricalColumn] = {}
    handles: list[shared_memory.SharedMemory] = []
    if ref.numeric_segment is not None:
        segment = shared_memory.SharedMemory(name=ref.numeric_segment)
        handles.append(segment)
        block = np.ndarray(
            (len(ref.numeric_names), ref.n_rows),
            dtype=np.float64,
            buffer=segment.buf,
        )
        block.flags.writeable = False
        for row, name in enumerate(ref.numeric_names):
            columns[name] = block[row]
    if ref.codes_segment is not None:
        segment = shared_memory.SharedMemory(name=ref.codes_segment)
        handles.append(segment)
        block = np.ndarray(
            (len(ref.categorical_names), ref.n_rows),
            dtype=np.int32,
            buffer=segment.buf,
        )
        block.flags.writeable = False
        for row, name in enumerate(ref.categorical_names):
            columns[name] = CategoricalColumn(
                block[row], ref.categories[row], validate=False
            )
    obs.counter("shm_tables_attached")
    return Table.from_trusted_columns(ref.schema, columns), handles


def unlink_segments(segments: list[shared_memory.SharedMemory]) -> None:
    """Close and unlink owned segments (idempotent, swallow-missing)."""
    for segment in segments:
        try:
            segment.close()
        except BufferError:
            # live views into the buffer (parent-side publishes release
            # their block views before this, so only attachments hit it)
            pass
        try:
            segment.unlink()
        except FileNotFoundError:
            pass
        _LIVE_SEGMENTS.discard(segment.name)
        obs.counter("shm_segments_unlinked")


class ShmRegistry:
    """Parent-side lease accounting for published tables.

    One entry per dataset cache key; each pending work unit that needs
    the dataset holds one lease. The table is published on the first
    lease and its segments are unlinked when the last lease is
    released — or, for whatever is left (crashes, aborts, poisoned
    retries), when the registry is closed. Use as a context manager so
    the close runs on every exit path.
    """

    def __init__(self) -> None:
        self._entries: dict[Any, tuple[TableRef, list[shared_memory.SharedMemory]]] = {}
        self._leases: dict[Any, int] = {}
        # Start the resource tracker NOW, before any worker pool forks:
        # forked workers then inherit (and share) this process's
        # tracker, whose name set is idempotent under the attach-side
        # re-registration of bpo-39959. If the first segment were
        # created only after the fork, each worker would lazily spawn
        # its *own* tracker on attach and "clean up" — i.e. warn about
        # and unlink — segments it merely borrowed.
        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()

    def lease(self, key: Any, table: Table) -> TableRef:
        """Take one lease on ``key``, publishing ``table`` if new."""
        if key not in self._entries:
            self._entries[key] = publish_table(table)
        self._leases[key] = self._leases.get(key, 0) + 1
        return self._entries[key][0]

    def release(self, key: Any) -> None:
        """Drop one lease; unlink the segments when none remain."""
        if key not in self._leases:
            return
        self._leases[key] -= 1
        if self._leases[key] <= 0:
            _ref, segments = self._entries.pop(key)
            del self._leases[key]
            unlink_segments(segments)

    def close(self) -> None:
        """Unlink every remaining segment, regardless of lease counts."""
        for _ref, segments in self._entries.values():
            unlink_segments(segments)
        self._entries.clear()
        self._leases.clear()

    def __enter__(self) -> "ShmRegistry":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self._entries)
