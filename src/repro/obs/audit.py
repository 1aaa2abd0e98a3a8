"""Fairness audit: run summaries, alert rules and baseline diffs.

This module makes the study's *outcome* — per-group fairness —
first-class telemetry, judged the way the paper judges it. Its one
source is the group confusion counts the store's records already hold;
the trace carries no fairness numbers. It has three pieces:

- :func:`build_audit` classifies every (dataset, error_type,
  detection, repair, model, group) configuration with
  :meth:`repro.benchmark.ImpactAnalysis.classify`: for each audited
  metric the mean dirty vs repaired |disparity|, and the CleanML
  paired-t verdict (worse / insignificant / better, Bonferroni-
  adjusted) with its p-value — the same classifications Tables II–XIII
  count — plus the accuracy verdict. This is the run summary the
  ledger persists (:mod:`repro.obs.ledger`). A store opened mid-run
  replays its journal shards, so ``obs-audit`` on an in-flight run
  audits every record written so far.
- :func:`evaluate_rules` checks the declarative alert rules
  (:mod:`repro.obs.rules`) against an audit — the only place rules
  are evaluated.
- :func:`diff_audits` compares a candidate audit against a (pinned)
  baseline: a configuration regresses exactly when its fairness
  verdict moves toward worse (better → insignificant, better → worse,
  insignificant → worse). ``obs-audit --fail-on-fairness-regression``
  turns the result into a CI exit code.

Repro-internal imports happen lazily inside functions: ``repro.obs``
initialises before ``repro.benchmark`` during package import, so this
module must not pull it at import time.

Audits contain no store bytes and live in sidecars/ledgers only — the
byte-identity discipline (store bytes equal with telemetry on or off)
is untouched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import groupby
from operator import attrgetter
from typing import Any, Iterable, Mapping, Sequence

from repro.obs.rules import Alert, AlertRule, dedupe_alerts, evaluate_gaps

#: Metric abbreviations audited by default: demographic parity, equal
#: opportunity, equalized odds, predictive parity.
AUDIT_METRICS = ("DP", "EO", "EOdds", "PP")

#: Format tag of :meth:`FairnessAudit.to_json`; baselines without it
#: predate the verdict audit and cannot be compared.
AUDIT_FORMAT = "paired-t-v1"

#: Verdict order: a move toward the front is a regression.
VERDICT_RANK = {"worse": 0, "insignificant": 1, "better": 2}


@dataclass(frozen=True)
class GroupAudit:
    """Classified fairness outcome of one configuration × group.

    Attributes:
        dataset / error_type / detection / repair / model / group:
            Configuration coordinates.
        n_runs: Paired runs (repetition × tuning-seed records).
        dirty_acc / repaired_acc: Mean test accuracies.
        accuracy: ``[verdict, p_value]`` of the repair's accuracy impact.
        gaps: Per audited metric: ``[mean dirty |disparity|, mean
            repaired |disparity|]`` over the runs where the metric was
            defined (None when it never was).
        fairness: Per audited metric: ``[verdict, p_value]`` of the
            repair's fairness impact.
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
    accuracy: list[Any]
    gaps: dict[str, list[float | None]]
    fairness: dict[str, list[Any]]

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
            "accuracy": list(self.accuracy),
            "gaps": {name: list(pair) for name, pair in sorted(self.gaps.items())},
            "fairness": {
                name: list(verdict) for name, verdict in sorted(self.fairness.items())
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
            accuracy=list(payload["accuracy"]),
            gaps={name: list(pair) for name, pair in payload["gaps"].items()},
            fairness={
                name: list(verdict) for name, verdict in payload["fairness"].items()
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
            "format": AUDIT_FORMAT,
            "metrics": list(self.metrics),
            "n_records": self.n_records,
            "groups": [entry.to_json() for entry in self.groups],
        }

    @staticmethod
    def from_json(payload: Mapping[str, Any]) -> "FairnessAudit":
        """Inverse of :meth:`to_json`.

        Raises :class:`ValueError` on an audit of another format, such
        as the earlier per-group confusion-``counts`` summaries that
        carry no verdicts.
        """
        found = payload.get("format")
        if found != AUDIT_FORMAT:
            described = (
                "the G²-era format (summed confusion counts, no verdicts)"
                if found is None
                else f"format {found!r}"
            )
            raise ValueError(
                f"baseline audit is in {described}; this version compares "
                f"{AUDIT_FORMAT!r} audits only — re-export the baseline with "
                "`python -m repro obs-baseline export` from a run of this "
                "version"
            )
        return FairnessAudit(
            groups=[GroupAudit.from_json(entry) for entry in payload["groups"]],
            metrics=tuple(payload["metrics"]),
            n_records=int(payload["n_records"]),
        )


def _defined(value: float) -> float | None:
    return None if math.isnan(value) else value


def build_audit(
    store,
    metrics: Sequence[str] = AUDIT_METRICS,
) -> FairnessAudit:
    """Classify a result store into its :class:`FairnessAudit`.

    Streams :meth:`~repro.benchmark.ResultStore.iter_records` once,
    groups the records by configuration and pairs each configuration's
    runs in (repetition, tuning seed) order, so serial and parallel
    runs of the same grid audit identically.
    """
    from repro.benchmark.impact import ImpactAnalysis
    from repro.fairness.confusion import group_keys_in_metrics

    configurations: dict[tuple[str, ...], list] = {}
    n_records = 0
    for record in store.iter_records():
        n_records += 1
        key = (
            record.dataset,
            record.error_type,
            record.detection,
            record.repair,
            record.model,
        )
        configurations.setdefault(key, []).append(record)
    analysis = ImpactAnalysis(store)
    groups = []
    for key in sorted(configurations):
        records = sorted(
            configurations[key],
            key=lambda record: (record.repetition, record.tuning_seed),
        )
        group_keys = group_keys_in_metrics(records[0].metrics, key[3])
        impacts = analysis.classify(records, group_keys, tuple(metrics))
        for group, per_metric in groupby(impacts, key=attrgetter("group_key")):
            per_metric = list(per_metric)
            first = per_metric[0]
            groups.append(
                GroupAudit(
                    *key,
                    group=group,
                    n_runs=first.n_runs,
                    dirty_acc=_defined(first.mean_dirty_accuracy),
                    repaired_acc=_defined(first.mean_clean_accuracy),
                    accuracy=[first.accuracy_impact.value, first.accuracy_p_value],
                    gaps={
                        impact.metric_name: [
                            _defined(impact.mean_dirty_fairness),
                            _defined(impact.mean_clean_fairness),
                        ]
                        for impact in per_metric
                    },
                    fairness={
                        impact.metric_name: [
                            impact.fairness_impact.value,
                            impact.fairness_p_value,
                        ]
                        for impact in per_metric
                    },
                )
            )
    return FairnessAudit(groups=groups, metrics=tuple(metrics), n_records=n_records)


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
        baseline / candidate: The fairness ``[verdict, p_value]`` in
            each run (None when the coordinate is absent there).
        baseline_gap / candidate_gap: Mean repaired |disparity| in
            each run (None when absent or undefined).
        note: ``""``, ``new`` (coordinate only in the candidate) or
            ``vanished`` (only in the baseline) — informational.
    """

    coordinate: str
    baseline: list[Any] | None
    candidate: list[Any] | None
    baseline_gap: float | None
    candidate_gap: float | None
    note: str = ""

    @property
    def move(self) -> int:
        """Verdict steps toward better (negative: toward worse)."""
        if self.baseline is None or self.candidate is None:
            return 0
        return VERDICT_RANK[self.candidate[0]] - VERDICT_RANK[self.baseline[0]]

    @property
    def regression(self) -> bool:
        """Whether the fairness verdict moved toward worse."""
        return self.move < 0

    def to_json(self) -> dict[str, Any]:
        """Serialisable representation."""
        return {
            "coordinate": self.coordinate,
            "baseline": self.baseline,
            "candidate": self.candidate,
            "baseline_gap": self.baseline_gap,
            "candidate_gap": self.candidate_gap,
            "regression": self.regression,
            "note": self.note,
        }


@dataclass
class AuditDiff:
    """Candidate-vs-baseline fairness comparison.

    ``underpowered`` counts compared configuration × group coordinates
    with fewer than 2 paired runs on either side: a paired t-test
    cannot resolve them, so their verdicts are always insignificant.
    """

    findings: list[AuditFinding] = field(default_factory=list)
    underpowered: int = 0

    @property
    def regressions(self) -> list[AuditFinding]:
        """Findings whose fairness verdict moved toward worse."""
        return [finding for finding in self.findings if finding.regression]

    @property
    def improvements(self) -> list[AuditFinding]:
        """Findings whose fairness verdict moved toward better."""
        return [finding for finding in self.findings if finding.move > 0]

    def to_json(self) -> dict[str, Any]:
        """Serialisable representation."""
        return {
            "n_findings": len(self.findings),
            "underpowered": self.underpowered,
            "regressions": [finding.to_json() for finding in self.regressions],
            "improvements": [finding.to_json() for finding in self.improvements],
            "findings": [finding.to_json() for finding in self.findings],
        }


def diff_audits(baseline: FairnessAudit, candidate: FairnessAudit) -> AuditDiff:
    """Compare two audits' fairness verdicts, coordinate by coordinate.

    A coordinate regresses exactly when its paired-t fairness verdict
    moves toward worse; a move toward better is an improvement.
    Identical audits therefore always diff clean.
    """
    diff = AuditDiff()
    base_entries = baseline.by_coordinate()
    cand_entries = candidate.by_coordinate()
    for coordinate in sorted(set(base_entries) | set(cand_entries)):
        base = base_entries.get(coordinate)
        cand = cand_entries.get(coordinate)
        present = [entry for entry in (base, cand) if entry is not None]
        if base is None or cand is None:
            note = "new" if base is None else "vanished"
        else:
            note = ""
            if min(base.n_runs, cand.n_runs) < 2:
                diff.underpowered += 1
        metrics = sorted({name for entry in present for name in entry.fairness})
        for metric in metrics:
            diff.findings.append(
                AuditFinding(
                    coordinate=f"{coordinate}/{metric}",
                    baseline=None if base is None else base.fairness.get(metric),
                    candidate=None if cand is None else cand.fairness.get(metric),
                    baseline_gap=_repaired_gap(base, metric),
                    candidate_gap=_repaired_gap(cand, metric),
                    note=note,
                )
            )
    return diff


def _repaired_gap(entry: GroupAudit | None, metric: str) -> float | None:
    if entry is None:
        return None
    return (entry.gaps.get(metric) or [None, None])[1]


def _format_gap(value: float | None) -> str:
    return "--" if value is None else f"{value:.3f}"


def _format_verdict(verdict: Sequence[Any] | None) -> str:
    return "--" if verdict is None else f"{verdict[0]} p={verdict[1]:.2g}"


def render_audit(
    audit: FairnessAudit,
    alerts: Iterable[Alert] = (),
    top: int = 10,
) -> str:
    """Plain-text audit summary: verdict tallies, worst widenings and
    fired alerts."""
    lines = [
        "FAIRNESS AUDIT",
        "==============",
        f"records: {audit.n_records}   configurations x groups: "
        f"{len(audit.groups)}   metrics: {', '.join(audit.metrics)}",
        "",
        "Fairness verdicts, repaired vs dirty (paired t-test, Bonferroni)",
    ]
    for metric in audit.metrics:
        tally = dict.fromkeys(VERDICT_RANK, 0)
        for entry in audit.groups:
            if metric in entry.fairness:
                tally[entry.fairness[metric][0]] += 1
        lines.append(
            f"  {metric}: "
            + "   ".join(f"{verdict} {count}" for verdict, count in tally.items())
        )
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
                f"{_format_gap(pair[1])} ({widening:+.3f}, n={entry.n_runs}, "
                f"{_format_verdict(entry.fairness.get(metric))})"
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


def _format_move(finding: AuditFinding, marker: str = " ") -> str:
    return (
        f"{marker} {finding.coordinate}: {_format_verdict(finding.baseline)} -> "
        f"{_format_verdict(finding.candidate)}, repaired gap "
        f"{_format_gap(finding.baseline_gap)} -> "
        f"{_format_gap(finding.candidate_gap)}"
    )


def render_audit_diff(diff: AuditDiff, all_findings: bool = False) -> str:
    """Plain-text audit-diff report (the ``obs-audit --baseline`` view)."""
    lines = [
        "FAIRNESS AUDIT DIFF (candidate vs baseline)",
        "===========================================",
        f"compared: {len(diff.findings)}   regressions: "
        f"{len(diff.regressions)}   improvements: {len(diff.improvements)}   "
        "(paired t-test fairness verdicts; a move toward worse regresses)",
    ]
    if diff.underpowered:
        lines.append(
            f"{diff.underpowered} configuration(s) x group(s) have fewer than "
            "2 paired runs: their verdicts are always insignificant"
        )
    if diff.regressions:
        lines.append("")
        lines.append("REGRESSIONS (fairness verdict moved toward worse)")
        lines.extend(_format_move(finding) for finding in diff.regressions)
    if diff.improvements:
        lines.append("")
        lines.append("improvements (fairness verdict moved toward better)")
        lines.extend(_format_move(finding) for finding in diff.improvements)
    if all_findings:
        lines.append("")
        lines.append("all compared coordinates")
        for finding in diff.findings:
            marker = "!" if finding.regression else " "
            note = f" [{finding.note}]" if finding.note else ""
            lines.append(_format_move(finding, marker) + note)
    if not diff.regressions:
        lines.append("")
        lines.append("no fairness regressions vs baseline")
    return "\n".join(lines)
