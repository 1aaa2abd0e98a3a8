"""Fairness audit: run summaries, alert rules and baseline diffs.

This module makes the study's *outcome* — per-group fairness —
first-class telemetry. Its one source is the group confusion counts
the store's records already hold; the trace carries no fairness
numbers. It has three pieces:

- :func:`build_audit` folds a whole :class:`~repro.benchmark.ResultStore`
  into a :class:`FairnessAudit`: per (dataset, error_type, detection,
  repair, model, group) configuration, the mean dirty vs repaired
  |disparity| for each audited metric plus the summed confusion counts
  behind them. This is the run summary the ledger persists
  (:mod:`repro.obs.ledger`). A store opened mid-run replays its
  journal shards, so ``obs-audit`` on an in-flight run audits every
  record written so far.
- :func:`evaluate_rules` checks the declarative alert rules
  (:mod:`repro.obs.rules`) against an audit — the only place rules
  are evaluated.
- :func:`diff_audits` compares a candidate audit against a (pinned)
  baseline with the same noise discipline as :mod:`repro.obs.diff` —
  a relative threshold AND an absolute gap floor must both clear —
  plus a G² evidence gate (:mod:`repro.stats.gtest`) over the summed
  group confusion counts, so a flagged fairness regression is backed
  by a genuinely changed outcome distribution, not float jitter.
  ``obs-audit --fail-on-fairness-regression`` turns the result into a
  CI exit code.

Repro-internal imports happen lazily inside functions: ``repro.obs``
initialises before ``repro.benchmark``/``repro.stats`` during package
import, so this module must not pull them at import time.

Audits contain no store bytes and live in sidecars/ledgers only — the
byte-identity discipline (store bytes equal with telemetry on or off)
is untouched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence

from repro.obs.rules import Alert, AlertRule, dedupe_alerts, evaluate_gaps

#: Metric abbreviations audited by default: demographic parity, equal
#: opportunity, equalized odds, predictive parity.
AUDIT_METRICS = ("DP", "EO", "EOdds", "PP")

#: Relative widening (vs the baseline gap) required to flag.
DEFAULT_THRESHOLD = 0.10

#: Absolute gap-widening floor (in disparity points) under which
#: changes count as noise.
DEFAULT_MIN_GAP = 0.02

#: Significance level for the G² evidence gate.
DEFAULT_ALPHA = 0.05


@dataclass(frozen=True)
class GroupAudit:
    """Aggregated fairness outcome of one configuration × group.

    Attributes:
        dataset / error_type / detection / repair / model / group:
            Configuration coordinates.
        n_runs: Records (repetition × tuning-seed cells) aggregated.
        dirty_acc / repaired_acc: Mean test accuracies.
        gaps: Per audited metric: ``[mean dirty |disparity|, mean
            repaired |disparity|]`` over the runs where the metric was
            defined (None when it never was).
        counts: Summed confusion counts ``[tn, fp, fn, tp]`` keyed
            ``dirty_priv`` / ``dirty_dis`` / ``repaired_priv`` /
            ``repaired_dis`` — the evidence substrate the audit diff's
            G² gate tests.
    """

    dataset: str
    error_type: str
    detection: str
    repair: str
    model: str
    group: str
    n_runs: int
    dirty_acc: float | None
    repaired_acc: float | None
    gaps: dict[str, list[float | None]]
    counts: dict[str, list[int]]

    @property
    def coordinate(self) -> str:
        """Stable ``dataset/error_type/detection/repair/model/group``."""
        return (
            f"{self.dataset}/{self.error_type}/{self.detection}"
            f"/{self.repair}/{self.model}/{self.group}"
        )

    def widening(self, metric: str) -> float | None:
        """Mean |repaired| − |dirty| gap for one metric (None if undefined)."""
        pair = self.gaps.get(metric)
        if pair is None or pair[0] is None or pair[1] is None:
            return None
        return pair[1] - pair[0]

    def to_json(self) -> dict[str, Any]:
        """Serialisable representation."""
        return {
            "dataset": self.dataset,
            "error_type": self.error_type,
            "detection": self.detection,
            "repair": self.repair,
            "model": self.model,
            "group": self.group,
            "n_runs": self.n_runs,
            "dirty_acc": self.dirty_acc,
            "repaired_acc": self.repaired_acc,
            "gaps": {name: list(pair) for name, pair in sorted(self.gaps.items())},
            "counts": {
                key: list(values) for key, values in sorted(self.counts.items())
            },
        }

    @staticmethod
    def from_json(payload: Mapping[str, Any]) -> "GroupAudit":
        """Inverse of :meth:`to_json`."""
        return GroupAudit(
            dataset=payload["dataset"],
            error_type=payload["error_type"],
            detection=payload["detection"],
            repair=payload["repair"],
            model=payload["model"],
            group=payload["group"],
            n_runs=int(payload["n_runs"]),
            dirty_acc=payload.get("dirty_acc"),
            repaired_acc=payload.get("repaired_acc"),
            gaps={
                name: list(pair) for name, pair in payload.get("gaps", {}).items()
            },
            counts={
                key: [int(v) for v in values]
                for key, values in payload.get("counts", {}).items()
            },
        )


@dataclass
class FairnessAudit:
    """A run's fairness-impact summary: one :class:`GroupAudit` per
    configuration × group, sorted by coordinate."""

    groups: list[GroupAudit] = field(default_factory=list)
    metrics: tuple[str, ...] = AUDIT_METRICS
    n_records: int = 0

    def by_coordinate(self) -> dict[str, GroupAudit]:
        """Coordinate-indexed view."""
        return {entry.coordinate: entry for entry in self.groups}

    def to_json(self) -> dict[str, Any]:
        """Serialisable representation."""
        return {
            "metrics": list(self.metrics),
            "n_records": self.n_records,
            "groups": [entry.to_json() for entry in self.groups],
        }

    @staticmethod
    def from_json(payload: Mapping[str, Any]) -> "FairnessAudit":
        """Inverse of :meth:`to_json`."""
        return FairnessAudit(
            groups=[GroupAudit.from_json(entry) for entry in payload["groups"]],
            metrics=tuple(payload.get("metrics", AUDIT_METRICS)),
            n_records=int(payload.get("n_records", 0)),
        )


class _Accumulator:
    __slots__ = ("n_runs", "acc", "gap_values", "counts")

    def __init__(self, metrics: Sequence[str]) -> None:
        self.n_runs = 0
        self.acc: dict[str, list[float]] = {"dirty": [], "repaired": []}
        self.gap_values: dict[str, dict[str, list[float]]] = {
            name: {"dirty": [], "repaired": []} for name in metrics
        }
        self.counts: dict[str, list[int]] = {
            key: [0, 0, 0, 0]
            for key in ("dirty_priv", "dirty_dis", "repaired_priv", "repaired_dis")
        }


def _mean(values: Sequence[float]) -> float | None:
    return sum(values) / len(values) if values else None


def build_audit(
    store,
    metrics: Sequence[str] = AUDIT_METRICS,
) -> FairnessAudit:
    """Fold a result store into its :class:`FairnessAudit`.

    Streams :meth:`~repro.benchmark.ResultStore.iter_records`; order
    independence comes from accumulating sums and sorting the output,
    so serial and parallel runs of the same grid audit identically.
    """
    from repro.fairness.confusion import (
        confusion_from_store_keys,
        group_key_fragments,
        group_keys_in_metrics,
    )
    from repro.fairness.metrics import ALL_FAIRNESS_METRICS as registry

    accumulators: dict[tuple[str, ...], _Accumulator] = {}
    n_records = 0
    for record in store.iter_records():
        n_records += 1
        for group_key in group_keys_in_metrics(record.metrics, record.repair):
            key = (
                record.dataset,
                record.error_type,
                record.detection,
                record.repair,
                record.model,
                group_key,
            )
            accumulator = accumulators.get(key)
            if accumulator is None:
                accumulator = accumulators[key] = _Accumulator(metrics)
            accumulator.n_runs += 1
            priv_fragment, dis_fragment = group_key_fragments(group_key)
            for side, technique in (("dirty", "dirty"), ("repaired", record.repair)):
                acc = record.metrics.get(f"{technique}_test_acc")
                if acc is not None and not math.isnan(float(acc)):
                    accumulator.acc[side].append(float(acc))
                privileged = confusion_from_store_keys(
                    record.metrics, technique, priv_fragment
                )
                disadvantaged = confusion_from_store_keys(
                    record.metrics, technique, dis_fragment
                )
                if privileged is None or disadvantaged is None:
                    continue
                for fragment_side, matrix in (
                    (f"{side}_priv", privileged),
                    (f"{side}_dis", disadvantaged),
                ):
                    totals = accumulator.counts[fragment_side]
                    for index, cell in enumerate(
                        (matrix.tn, matrix.fp, matrix.fn, matrix.tp)
                    ):
                        totals[index] += cell
                for name in metrics:
                    value = registry[name](privileged, disadvantaged)
                    if not math.isnan(value):
                        accumulator.gap_values[name][side].append(abs(value))
    groups = []
    for key in sorted(accumulators):
        accumulator = accumulators[key]
        dataset, error_type, detection, repair, model, group = key
        groups.append(
            GroupAudit(
                dataset=dataset,
                error_type=error_type,
                detection=detection,
                repair=repair,
                model=model,
                group=group,
                n_runs=accumulator.n_runs,
                dirty_acc=_mean(accumulator.acc["dirty"]),
                repaired_acc=_mean(accumulator.acc["repaired"]),
                gaps={
                    name: [
                        _mean(sides["dirty"]),
                        _mean(sides["repaired"]),
                    ]
                    for name, sides in accumulator.gap_values.items()
                },
                counts=accumulator.counts,
            )
        )
    return FairnessAudit(
        groups=groups, metrics=tuple(metrics), n_records=n_records
    )


def evaluate_rules(
    rules: Sequence[AlertRule], audit: FairnessAudit
) -> list[Alert]:
    """Post-hoc rule evaluation over an audit's aggregated gaps."""
    alerts: list[Alert] = []
    for entry in audit.groups:
        alerts.extend(
            evaluate_gaps(
                rules,
                dataset=entry.dataset,
                error_type=entry.error_type,
                detection=entry.detection,
                repair=entry.repair,
                model=entry.model,
                gaps={entry.group: entry.gaps},
                dirty_acc=entry.dirty_acc,
                repaired_acc=entry.repaired_acc,
            )
        )
    return dedupe_alerts(alerts)


@dataclass(frozen=True)
class AuditFinding:
    """One compared coordinate of an audit diff.

    Attributes:
        coordinate: ``dataset/.../group/metric``.
        baseline_gap / candidate_gap: Mean repaired |disparity| in
            each run (None when the metric was undefined).
        delta: ``candidate_gap − baseline_gap`` (positive = the
            candidate run is less fair here).
        relative: ``delta`` relative to the baseline gap (or inf for a
            zero baseline).
        g_statistic / p_value / significant: The G² evidence gate over
            the summed repaired-group confusion counts (max of the
            privileged and disadvantaged tables).
        regression: Whether all three gates (relative threshold,
            absolute floor, significance) flagged this coordinate.
        note: ``""``, ``new`` (coordinate only in the candidate) or
            ``vanished`` (only in the baseline) — informational.
    """

    coordinate: str
    baseline_gap: float | None
    candidate_gap: float | None
    delta: float
    relative: float
    g_statistic: float
    p_value: float
    significant: bool
    regression: bool
    note: str = ""

    def to_json(self) -> dict[str, Any]:
        """Serialisable representation."""
        return {
            "coordinate": self.coordinate,
            "baseline_gap": self.baseline_gap,
            "candidate_gap": self.candidate_gap,
            "delta": self.delta,
            "relative": self.relative,
            "g_statistic": self.g_statistic,
            "p_value": self.p_value,
            "significant": self.significant,
            "regression": self.regression,
            "note": self.note,
        }


@dataclass
class AuditDiff:
    """Candidate-vs-baseline fairness comparison."""

    findings: list[AuditFinding] = field(default_factory=list)
    threshold: float = DEFAULT_THRESHOLD
    min_gap: float = DEFAULT_MIN_GAP
    alpha: float = DEFAULT_ALPHA

    @property
    def regressions(self) -> list[AuditFinding]:
        """Findings that cleared every gate."""
        return [finding for finding in self.findings if finding.regression]

    @property
    def improvements(self) -> list[AuditFinding]:
        """Significant narrowings that would have flagged with the
        opposite sign (informational)."""
        return [
            finding
            for finding in self.findings
            if not finding.regression
            and finding.significant
            and finding.baseline_gap is not None
            and finding.candidate_gap is not None
            and -finding.delta >= self.min_gap
        ]

    def to_json(self) -> dict[str, Any]:
        """Serialisable representation."""
        return {
            "threshold": self.threshold,
            "min_gap": self.min_gap,
            "alpha": self.alpha,
            "n_findings": len(self.findings),
            "regressions": [finding.to_json() for finding in self.regressions],
            "improvements": [
                finding.to_json() for finding in self.improvements
            ],
            "findings": [finding.to_json() for finding in self.findings],
        }


def _counts_gtest(
    baseline: Mapping[str, Sequence[int]],
    candidate: Mapping[str, Sequence[int]],
    alpha: float,
):
    """G² over baseline-vs-candidate repaired confusion counts.

    One 2×4 table per group side (privileged, disadvantaged); the side
    with the stronger evidence wins, so a gap widened purely through
    the privileged group still has to show a real distribution change.
    """
    from repro.stats.gtest import GTestResult, g_test

    best = GTestResult(statistic=0.0, p_value=1.0, dof=0, significant=False)
    for side in ("repaired_dis", "repaired_priv"):
        base_counts = list(baseline.get(side, ()))
        cand_counts = list(candidate.get(side, ()))
        if len(base_counts) != 4 or len(cand_counts) != 4:
            continue
        result = g_test([base_counts, cand_counts], alpha=alpha)
        if result.p_value < best.p_value or best.dof == 0:
            best = result
    return best


def diff_audits(
    baseline: FairnessAudit,
    candidate: FairnessAudit,
    threshold: float = DEFAULT_THRESHOLD,
    min_gap: float = DEFAULT_MIN_GAP,
    alpha: float = DEFAULT_ALPHA,
) -> AuditDiff:
    """Compare two audits, flagging fairness regressions.

    A coordinate regresses when the candidate's mean repaired
    |disparity| exceeds the baseline's by at least ``min_gap`` points
    AND by at least ``threshold`` relative to the baseline gap AND the
    G² gate finds the underlying confusion counts significantly
    different. Identical audits therefore always diff clean (G² = 0).
    """
    diff = AuditDiff(threshold=threshold, min_gap=min_gap, alpha=alpha)
    base_entries = baseline.by_coordinate()
    cand_entries = candidate.by_coordinate()
    for coordinate in sorted(set(base_entries) | set(cand_entries)):
        base = base_entries.get(coordinate)
        cand = cand_entries.get(coordinate)
        if base is None or cand is None:
            present = cand if base is None else base
            for metric in present.gaps:
                gap = present.gaps[metric][1]
                diff.findings.append(
                    AuditFinding(
                        coordinate=f"{coordinate}/{metric}",
                        baseline_gap=None if base is None else gap,
                        candidate_gap=None if cand is None else gap,
                        delta=0.0,
                        relative=0.0,
                        g_statistic=0.0,
                        p_value=1.0,
                        significant=False,
                        regression=False,
                        note="new" if base is None else "vanished",
                    )
                )
            continue
        evidence = None
        for metric in sorted(set(base.gaps) | set(cand.gaps)):
            base_gap = (base.gaps.get(metric) or [None, None])[1]
            cand_gap = (cand.gaps.get(metric) or [None, None])[1]
            if base_gap is None or cand_gap is None:
                continue
            delta = cand_gap - base_gap
            relative = (
                abs(delta) / base_gap if base_gap > 0 else float("inf")
            )
            # dual noise thresholds (mirroring obs.diff): both the
            # relative change and the absolute gap floor must clear,
            # in either direction — then the G² gate decides whether
            # the underlying counts genuinely moved
            flagged = abs(delta) >= min_gap and relative >= threshold
            if flagged and evidence is None:
                evidence = _counts_gtest(base.counts, cand.counts, alpha)
            result = evidence if flagged else None
            diff.findings.append(
                AuditFinding(
                    coordinate=f"{coordinate}/{metric}",
                    baseline_gap=base_gap,
                    candidate_gap=cand_gap,
                    delta=delta,
                    relative=relative,
                    g_statistic=0.0 if result is None else result.statistic,
                    p_value=1.0 if result is None else result.p_value,
                    significant=False if result is None else result.significant,
                    regression=bool(
                        delta > 0 and flagged and result and result.significant
                    ),
                )
            )
    return diff


def _format_gap(value: float | None) -> str:
    return "--" if value is None else f"{value:.3f}"


def render_audit(
    audit: FairnessAudit,
    alerts: Iterable[Alert] = (),
    top: int = 10,
) -> str:
    """Plain-text audit summary: worst widenings + fired alerts."""
    lines = [
        "FAIRNESS AUDIT",
        "==============",
        f"records: {audit.n_records}   configurations x groups: "
        f"{len(audit.groups)}   metrics: {', '.join(audit.metrics)}",
    ]
    widenings = []
    for entry in audit.groups:
        for metric in audit.metrics:
            widening = entry.widening(metric)
            if widening is not None:
                widenings.append((widening, f"{entry.coordinate}/{metric}", entry))
    widenings.sort(key=lambda item: (-item[0], item[1]))
    if widenings:
        lines.append("")
        lines.append(f"Largest gap widenings, repaired vs dirty (top {top})")
        for widening, coordinate, entry in widenings[:top]:
            metric = coordinate.rsplit("/", 1)[1]
            pair = entry.gaps[metric]
            lines.append(
                f"  {coordinate}: {_format_gap(pair[0])} -> "
                f"{_format_gap(pair[1])} ({widening:+.3f}, n={entry.n_runs})"
            )
    alerts = list(alerts)
    lines.append("")
    if alerts:
        lines.append(f"Alerts ({len(alerts)})")
        for alert in alerts:
            lines.append(f"  [{alert.rule}] {alert.message}")
    else:
        lines.append("Alerts: none")
    return "\n".join(lines)


def render_audit_diff(diff: AuditDiff, all_findings: bool = False) -> str:
    """Plain-text audit-diff report (the ``obs-audit --baseline`` view)."""
    lines = [
        "FAIRNESS AUDIT DIFF (candidate vs baseline)",
        "===========================================",
        f"compared: {len(diff.findings)}   regressions: "
        f"{len(diff.regressions)}   improvements: {len(diff.improvements)}   "
        f"(threshold {diff.threshold:.0%} relative AND {diff.min_gap:.3f} "
        f"absolute, G-test alpha {diff.alpha})",
    ]
    if diff.regressions:
        lines.append("")
        lines.append("REGRESSIONS (gap widened vs baseline)")
        for finding in diff.regressions:
            lines.append(
                f"  {finding.coordinate}: {_format_gap(finding.baseline_gap)} "
                f"-> {_format_gap(finding.candidate_gap)} "
                f"({finding.delta:+.3f}, G²={finding.g_statistic:.1f}, "
                f"p={finding.p_value:.2g})"
            )
    if diff.improvements:
        lines.append("")
        lines.append("improvements (gap narrowed vs baseline)")
        for finding in diff.improvements:
            lines.append(
                f"  {finding.coordinate}: {_format_gap(finding.baseline_gap)} "
                f"-> {_format_gap(finding.candidate_gap)} ({finding.delta:+.3f})"
            )
    if all_findings:
        lines.append("")
        lines.append("all compared coordinates")
        for finding in diff.findings:
            marker = "!" if finding.regression else " "
            note = f" [{finding.note}]" if finding.note else ""
            lines.append(
                f" {marker} {finding.coordinate}: "
                f"{_format_gap(finding.baseline_gap)} -> "
                f"{_format_gap(finding.candidate_gap)}{note}"
            )
    if not diff.regressions:
        lines.append("")
        lines.append("no fairness regressions vs baseline")
    return "\n".join(lines)
