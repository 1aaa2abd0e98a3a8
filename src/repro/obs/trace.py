"""Zero-dependency structured tracing core.

The tracer is a process-global object emitting JSONL *events* to a
:class:`TraceSink`. Three event kinds exist (see DESIGN.md §10):

- ``span`` — a named, nestable timed section. Opened with
  :func:`span`, closed by its ``with`` block; carries monotonic
  ``seconds``, free-form ``attrs``, accumulated ``counters`` and the
  ``path`` of enclosing span names (thread-local, so concurrent
  threads nest independently).
- ``event`` — a point occurrence (a retry, an injected fault, a
  poisoned unit) with free-form attributes.
- ``metric`` — an aggregated counter snapshot, flushed from the
  :class:`repro.obs.metrics.MetricsRegistry` owned by the tracer.

Every span and point event additionally carries ``ts`` — the
wall-clock epoch time at span *start* (event emission) — and ``w``,
the emitting worker track (``w{pid}``, like the executor's journal
shard naming, or ``w{pid}.t{tid}`` off the main thread). The pair
is what turns post-hoc sidecars into a live telemetry plane: ``ts``
anchors the Chrome-trace export (:mod:`repro.obs.export`), the
in-flight heartbeat-age stall detection (:mod:`repro.obs.progress`)
and the newest-run scope of the fold (:mod:`repro.obs.report`); ``w``
assigns each event to its per-worker track.

:func:`heartbeat` emits a ``heartbeat`` point event and *flushes* the
sink, so a read-only tail of the shard files (``python -m repro
obs-report --follow``) observes progress while the run is still in
flight — ordinary events stay buffered for throughput.

Disabled tracing costs one attribute lookup: every module-level helper
first reads ``_TRACER.enabled`` and returns a shared no-op object
without allocating anything. No event is buffered, no clock is read.

Worker processes of the parallel study executor call :func:`scoped`
to redirect the tracer at a per-process shard file
(``{stem}.trace.w{pid}.jsonl``) for the duration of one work unit —
the same shard-then-compact lifecycle the result journal uses. The
scope restores the previous configuration (and its buffer) on exit,
so in-process execution inside the parent never loses parent events.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

from repro.obs.metrics import MetricsRegistry

#: Trace event schema version, stamped on every line.
SCHEMA_VERSION = 1


def track_id() -> str:
    """Worker track of the calling thread (``w{pid}[.t{tid}]``).

    Matches the executor's journal/trace shard naming: one track per
    worker process. Events emitted off the main thread get their own
    per-thread track.
    """
    thread = threading.current_thread()
    if thread is threading.main_thread():
        return f"w{os.getpid()}"
    return f"w{os.getpid()}.t{thread.ident}"


class TraceSink:
    """Buffered JSONL event sink.

    Events are buffered in memory and appended to ``path`` whenever
    the buffer reaches ``flush_every`` events, on :meth:`flush` and on
    :meth:`close`. Each flush opens the file in append mode and closes
    it again, so a sink survives fork boundaries without sharing file
    handles between processes (each process must still write to its
    own path — the executor keys worker shards by pid).
    """

    def __init__(self, path: str | Path, flush_every: int = 256) -> None:
        if flush_every < 1:
            raise ValueError(f"flush_every must be >= 1, got {flush_every}")
        self._path = Path(path)
        self._flush_every = flush_every
        self._buffer: list[str] = []
        self._lock = threading.Lock()

    @property
    def path(self) -> Path:
        """The JSONL file this sink appends to."""
        return self._path

    def emit(self, event: dict[str, Any]) -> None:
        """Buffer one event (flushing when the buffer is full)."""
        line = json.dumps(event, sort_keys=True, separators=(",", ":"))
        with self._lock:
            self._buffer.append(line)
            if len(self._buffer) >= self._flush_every:
                self._write_locked()

    def flush(self) -> None:
        """Append all buffered events to the file."""
        with self._lock:
            self._write_locked()

    def _write_locked(self) -> None:
        if not self._buffer:
            return
        self._path.parent.mkdir(parents=True, exist_ok=True)
        with self._path.open("a") as handle:
            handle.write("\n".join(self._buffer) + "\n")
        self._buffer.clear()

    def close(self) -> None:
        """Flush; the sink holds no persistent handle to close."""
        self.flush()


class Span:
    """One open span: a timed section with attributes and counters."""

    __slots__ = (
        "name",
        "attrs",
        "counters",
        "_tracer",
        "_started",
        "seconds",
        "ts",
    )

    def __init__(self, tracer: "Tracer", name: str, attrs: dict[str, Any]) -> None:
        self.name = name
        self.attrs = attrs
        self.counters: dict[str, float] = {}
        self._tracer = tracer
        self._started = 0.0
        self.seconds = 0.0
        #: Wall-clock epoch seconds at span start (set on ``__enter__``).
        self.ts = 0.0

    def set(self, **attrs: Any) -> "Span":
        """Attach or overwrite span attributes."""
        self.attrs.update(attrs)
        return self

    def add(self, counter: str, amount: float = 1.0) -> "Span":
        """Accumulate a per-span counter."""
        self.counters[counter] = self.counters.get(counter, 0.0) + amount
        return self

    def __enter__(self) -> "Span":
        self._tracer._push(self)
        self.ts = time.time()
        self._started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.seconds = time.perf_counter() - self._started
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._tracer._pop(self)


class _NoopSpan:
    """Shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    def set(self, **attrs: Any) -> "_NoopSpan":
        return self

    def add(self, counter: str, amount: float = 1.0) -> "_NoopSpan":
        return self

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


NOOP_SPAN = _NoopSpan()


class Tracer:
    """Process-global tracing state: enabled flag, sink, span stacks."""

    def __init__(self) -> None:
        self.enabled = False
        self._sink: TraceSink | None = None
        self.metrics = MetricsRegistry()
        self._local = threading.local()

    # -- configuration ---------------------------------------------------

    def configure(
        self, path: str | Path | None, enabled: bool = True
    ) -> None:
        """(Re)configure the tracer; resets buffers and metrics.

        ``path`` is the JSONL sink file (None disables even when
        ``enabled`` is True — there is nowhere to write).
        """
        self._sink = TraceSink(path) if path is not None else None
        self.enabled = bool(enabled and self._sink is not None)
        self.metrics = MetricsRegistry()
        self._local = threading.local()

    def shutdown(self) -> None:
        """Flush metrics and buffered events, then disable tracing."""
        self.flush()
        self.enabled = False
        self._sink = None

    def flush(self) -> None:
        """Flush the metrics registry and the sink to disk."""
        if self._sink is None:
            return
        for snapshot in self.metrics.drain():
            self._sink.emit({"v": SCHEMA_VERSION, "kind": "metric", **snapshot})
        self._sink.flush()

    @contextmanager
    def scoped(
        self, path: str | Path | None, enabled: bool = True
    ) -> Iterator[None]:
        """Temporarily redirect the tracer at another sink.

        Used by the parallel executor: a work unit running inside a
        pool worker (or in-process in the parent) traces into its own
        shard file, and the previous configuration — including any
        buffered-but-unflushed parent events and metrics — is restored
        afterwards. Scoped state is flushed on exit, even when the
        unit raises (injected crashes must not lose their events).
        """
        previous = (self.enabled, self._sink, self.metrics, self._local)
        self.configure(path, enabled=enabled)
        try:
            yield
        finally:
            self.flush()
            self.enabled, self._sink, self.metrics, self._local = previous

    # -- span stack ------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _push(self, span: Span) -> None:
        self._stack().append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        path = "/".join([open_span.name for open_span in stack] + [span.name])
        event: dict[str, Any] = {
            "v": SCHEMA_VERSION,
            "kind": "span",
            "name": span.name,
            "path": path,
            "seconds": span.seconds,
            "ts": span.ts,
            "w": track_id(),
        }
        if span.attrs:
            event["attrs"] = span.attrs
        if span.counters:
            event["counters"] = span.counters
        if self._sink is not None:
            self._sink.emit(event)

    # -- emission --------------------------------------------------------

    def span(self, name: str, **attrs: Any):
        """Open a span (no-op while disabled)."""
        if not self.enabled:
            return NOOP_SPAN
        return Span(self, name, attrs)

    def event(self, name: str, **attrs: Any) -> None:
        """Emit a point event (no-op while disabled)."""
        if not self.enabled or self._sink is None:
            return
        event: dict[str, Any] = {
            "v": SCHEMA_VERSION,
            "kind": "event",
            "name": name,
            "ts": time.time(),
            "w": track_id(),
        }
        if attrs:
            event["attrs"] = attrs
        self._sink.emit(event)

    def heartbeat(self, **attrs: Any) -> None:
        """Emit a ``heartbeat`` point event and flush it to disk.

        Unlike ordinary events — buffered for throughput — a heartbeat
        is immediately visible to a read-only tail of the sink file, so
        ``python -m repro obs-report`` can observe liveness, per-cell
        progress and heartbeat age while the run is in flight. The
        flush also drains the metrics registry, keeping counters live
        too (snapshots sum at compaction, so eager draining never
        double-counts).
        """
        if not self.enabled or self._sink is None:
            return
        self.event("heartbeat", **attrs)
        self.flush()


#: The process-global tracer behind the module-level helpers.
_TRACER = Tracer()


def is_enabled() -> bool:
    """Whether tracing is currently on."""
    return _TRACER.enabled


def configure(path: str | Path | None, enabled: bool = True) -> None:
    """Point the global tracer at a JSONL sink file."""
    _TRACER.configure(path, enabled=enabled)


def shutdown() -> None:
    """Flush and disable the global tracer."""
    _TRACER.shutdown()


def flush() -> None:
    """Flush the global tracer's metrics and buffered events."""
    _TRACER.flush()


def scoped(path: str | Path | None, enabled: bool = True):
    """Temporarily redirect the global tracer (see :meth:`Tracer.scoped`)."""
    return _TRACER.scoped(path, enabled=enabled)


def span(name: str, **attrs: Any):
    """Open a span on the global tracer (one attribute lookup when off)."""
    if not _TRACER.enabled:
        return NOOP_SPAN
    return Span(_TRACER, name, attrs)


def event(name: str, **attrs: Any) -> None:
    """Emit a point event on the global tracer."""
    if not _TRACER.enabled:
        return
    _TRACER.event(name, **attrs)


def heartbeat(**attrs: Any) -> None:
    """Emit a flushed heartbeat event on the global tracer."""
    if not _TRACER.enabled:
        return
    _TRACER.heartbeat(**attrs)


def counter(name: str, amount: float = 1.0, **labels: Any) -> None:
    """Increment a registry counter on the global tracer."""
    if not _TRACER.enabled:
        return
    _TRACER.metrics.counter(name, amount, **labels)
