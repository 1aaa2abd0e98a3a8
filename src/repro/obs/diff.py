"""Cross-run regression diffs over trace sidecars.

:func:`diff_runs` compares two traced runs — span-duration
distributions (count / mean / p50 / p95 per span name), merged metric
counters, and cache/reuse hit rates — and flags changes that
clear **noise-aware thresholds**: a change is reported only when it is
both relatively large (``threshold``, default 10%) *and* absolutely
large (``min_seconds`` for durations, ``min_count`` for counters,
``min_rate`` percentage points for hit rates). Tiny spans and
low-volume counters jitter wildly between runs; requiring both bounds
keeps ``python -m repro obs-diff`` quiet on noise while still
catching "cell p95 regressed 2×" or "incremental reuse rate dropped".

Each side is folded once by :func:`repro.obs.report.build_health`, the
one event reducer (scoped to each trace's newest run; counters cover
all runs), and every compared quantity is read from the two
:class:`~repro.obs.report.RunHealth` summaries. The comparison is
trace-only: it never opens the result store, so two runs can be diffed
from their ``trace.jsonl`` sidecars alone (e.g. CI artifacts of two
branches).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

from repro.obs.report import build_health, read_trace_events

#: Default relative-change threshold for flagging a regression.
DEFAULT_THRESHOLD = 0.10

#: Default absolute floors under which changes are noise, per family.
DEFAULT_MIN_SECONDS = 0.005
DEFAULT_MIN_COUNT = 1.0
DEFAULT_MIN_RATE = 0.05


@dataclass
class DiffEntry:
    """One compared quantity across the two runs.

    ``ratio`` is ``b / a`` (``inf`` for a new quantity, 0 for a
    vanished one); ``flagged`` marks entries clearing both the
    relative and the absolute threshold.
    """

    kind: str
    name: str
    a: float
    b: float
    delta: float
    ratio: float
    flagged: bool

    def to_json(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "name": self.name,
            "a": self.a,
            "b": self.b,
            "delta": self.delta,
            "ratio": self.ratio,
            "flagged": self.flagged,
        }


@dataclass
class RunDiff:
    """Structured comparison of two traced runs (A = baseline, B = new)."""

    entries: list[DiffEntry] = field(default_factory=list)
    threshold: float = DEFAULT_THRESHOLD

    @property
    def flagged(self) -> list[DiffEntry]:
        """Entries whose change cleared the noise thresholds."""
        return [entry for entry in self.entries if entry.flagged]

    def to_json(self) -> dict[str, Any]:
        return {
            "threshold": self.threshold,
            "flagged": len(self.flagged),
            "entries": [entry.to_json() for entry in self.entries],
        }


def _entry(
    kind: str,
    name: str,
    a: float,
    b: float,
    threshold: float,
    min_abs: float,
) -> DiffEntry:
    delta = b - a
    if a == 0.0:
        ratio = math.inf if b != 0.0 else 1.0
    else:
        ratio = b / a
    relative = abs(delta) / abs(a) if a != 0.0 else math.inf if b else 0.0
    flagged = abs(delta) >= min_abs and relative >= threshold
    return DiffEntry(
        kind=kind, name=name, a=a, b=b, delta=delta, ratio=ratio, flagged=flagged
    )


def _span_quantities(totals: dict[str, float] | None) -> dict[str, float]:
    """One span name's compared quantities (zeros when it is absent)."""
    if totals is None:
        return {"count": 0.0, "mean": 0.0, "p50": 0.0, "p95": 0.0}
    return {
        "count": float(totals["count"]),
        "mean": totals["seconds"] / totals["count"],
        "p50": totals["p50"],
        "p95": totals["p95"],
    }


def diff_runs(
    events_a: Sequence[dict[str, Any]],
    events_b: Sequence[dict[str, Any]],
    threshold: float = DEFAULT_THRESHOLD,
    min_seconds: float = DEFAULT_MIN_SECONDS,
    min_count: float = DEFAULT_MIN_COUNT,
    min_rate: float = DEFAULT_MIN_RATE,
) -> RunDiff:
    """Compare two runs' trace events (A = baseline, B = candidate)."""
    diff = RunDiff(threshold=threshold)
    health_a = build_health(events_a)
    health_b = build_health(events_b)
    for name in sorted(set(health_a.phase_totals) | set(health_b.phase_totals)):
        a = _span_quantities(health_a.phase_totals.get(name))
        b = _span_quantities(health_b.phase_totals.get(name))
        for quantity in ("mean", "p50", "p95"):
            diff.entries.append(
                _entry(
                    "span",
                    f"{name}.{quantity}_seconds",
                    a[quantity],
                    b[quantity],
                    threshold,
                    min_seconds,
                )
            )
        diff.entries.append(
            _entry("span", f"{name}.count", a["count"], b["count"], threshold, min_count)
        )
    for name in sorted(set(health_a.counters) | set(health_b.counters)):
        diff.entries.append(
            _entry(
                "counter",
                name,
                health_a.counters.get(name, 0.0),
                health_b.counters.get(name, 0.0),
                threshold,
                min_count,
            )
        )
    for family, a_rates, b_rates in (
        ("cache", health_a.cache, health_b.cache),
        ("reuse", health_a.reuse, health_b.reuse),
    ):
        for name in sorted(set(a_rates) | set(b_rates)):
            rate_a = a_rates.get(name, {}).get("hit_rate", 0.0)
            rate_b = b_rates.get(name, {}).get("hit_rate", 0.0)
            rate_a = 0.0 if math.isnan(rate_a) else rate_a
            rate_b = 0.0 if math.isnan(rate_b) else rate_b
            # hit rates compare in absolute percentage points: a
            # relative threshold on a near-zero rate would flag noise
            delta = rate_b - rate_a
            diff.entries.append(
                DiffEntry(
                    kind=family,
                    name=f"{name}.hit_rate",
                    a=rate_a,
                    b=rate_b,
                    delta=delta,
                    ratio=rate_b / rate_a if rate_a else (math.inf if rate_b else 1.0),
                    flagged=abs(delta) >= min_rate,
                )
            )
    return diff


def diff_stores(
    trace_paths_a: Sequence[str | Path],
    trace_paths_b: Sequence[str | Path],
    **kwargs: Any,
) -> RunDiff:
    """Diff two runs from their trace files on disk."""
    return diff_runs(
        read_trace_events(trace_paths_a),
        read_trace_events(trace_paths_b),
        **kwargs,
    )


def _format_value(kind: str, value: float) -> str:
    if kind in ("cache", "reuse"):
        return f"{value * 100.0:.1f}%"
    if math.isinf(value):
        return "inf"
    return f"{value:.4g}"


def render_diff(diff: RunDiff, all_entries: bool = False) -> str:
    """Plain-text diff report (the ``obs-diff`` output).

    By default only flagged entries print; ``all_entries`` includes
    the full comparison.
    """
    lines = [
        "RUN DIFF (A = baseline, B = candidate)",
        "======================================",
        f"compared: {len(diff.entries)} quantities   "
        f"flagged: {len(diff.flagged)}   "
        f"threshold: {diff.threshold * 100.0:.0f}%",
    ]
    entries = diff.entries if all_entries else diff.flagged
    if not entries:
        lines.append("no changes beyond the noise thresholds")
        return "\n".join(lines)
    lines.append("")
    width = max(len(f"{e.kind}:{e.name}") for e in entries)
    for entry in entries:
        direction = "+" if entry.delta >= 0 else ""
        marker = "  <-- flagged" if entry.flagged and all_entries else ""
        ratio = (
            "new" if math.isinf(entry.ratio) else f"{entry.ratio:.2f}x"
        )
        lines.append(
            f"{(entry.kind + ':' + entry.name).ljust(width)}  "
            f"A={_format_value(entry.kind, entry.a)}  "
            f"B={_format_value(entry.kind, entry.b)}  "
            f"({direction}{_format_value(entry.kind, entry.delta)}, {ratio})"
            f"{marker}"
        )
    return "\n".join(lines)
