"""Metrics registry: counters whose snapshots merge across shards.

Counters are keyed by ``(name, sorted labels)`` and every snapshot
serialises to a flat JSON payload. Two snapshots of the same counter —
e.g. from two worker-process trace shards — sum, and summing is
commutative, so the merge is **permutation-invariant** (see
:func:`merge_metric_events`, which
:meth:`repro.benchmark.ResultStore.compact_trace` applies when folding
worker shards into the run's ``trace.jsonl``).
"""

from __future__ import annotations

from typing import Any, Iterable


def _label_key(labels: dict[str, Any]) -> tuple[tuple[str, Any], ...]:
    return tuple(sorted(labels.items()))


class MetricsRegistry:
    """In-memory counter accumulator attached to a tracer."""

    def __init__(self) -> None:
        self._counters: dict[tuple[str, tuple], float] = {}

    def counter(self, name: str, amount: float = 1.0, **labels: Any) -> None:
        """Add ``amount`` to a monotonically increasing counter."""
        key = (name, _label_key(labels))
        self._counters[key] = self._counters.get(key, 0.0) + amount

    def snapshot(self) -> list[dict[str, Any]]:
        """Serialisable snapshots, sorted by (name, labels)."""
        return [
            {"type": "counter", "name": name, "labels": dict(labels), "value": value}
            for (name, labels), value in sorted(self._counters.items())
        ]

    def drain(self) -> list[dict[str, Any]]:
        """Snapshot and reset, so repeated flushes never double-count."""
        out = self.snapshot()
        self._counters.clear()
        return out


def merge_metric_events(events: Iterable[dict[str, Any]]) -> list[dict[str, Any]]:
    """Sum ``counter`` metric events, invariantly under permutation.

    Counters with the same (name, labels) sum, and the merged list is
    sorted by (name, labels), so merging the same events in *any*
    order (worker shards read under any file-name permutation) gives
    the same output. Other metric types (the gauges and histograms
    older traces carry) are skipped.
    """
    registry = MetricsRegistry()
    for event in events:
        if event.get("type") == "counter":
            registry.counter(event["name"], event["value"], **event.get("labels", {}))
    return registry.snapshot()
