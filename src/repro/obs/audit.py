"""Fairness audit: run summaries and baseline diffs.

This module makes the study's *outcome* — per-group fairness —
first-class telemetry, judged the way the paper judges it. Its one
source is the group confusion counts the store's records already hold;
the trace carries no fairness numbers. It has two pieces:

- :func:`build_audit` regroups the impacts of one
  :class:`repro.benchmark.ImpactAnalysis` pass per (dataset,
  error_type, detection, repair, model, group): for each audited
  metric the mean dirty vs repaired |disparity|, and the CleanML
  paired-t verdict (worse / insignificant / better, Bonferroni-
  adjusted) with its p-value — the same classifications Tables II–XIII
  count — plus the accuracy verdict. A store opened mid-run replays
  its journal shards, so ``obs-audit`` on an in-flight run audits
  every record written so far.
- :func:`diff_audits` compares a candidate audit against a baseline:
  a configuration regresses exactly when its fairness verdict moves
  toward worse (better → insignificant, better → worse,
  insignificant → worse). A baseline is a file holding what
  ``python -m repro obs-audit STORE --json`` prints
  (:func:`load_baseline`), and ``obs-audit --baseline FILE
  --fail-on-fairness-regression`` turns the diff into a CI exit code.

Repro-internal imports happen lazily inside functions: ``repro.obs``
initialises before ``repro.benchmark`` during package import, so this
module must not pull it at import time.

Audits contain no store bytes and are never written next to the store
— the byte-identity discipline (store bytes equal with telemetry on or
off) is untouched.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence

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
        return asdict(self)

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
                f"{AUDIT_FORMAT!r} audits only — write a new baseline with "
                "`python -m repro obs-audit STORE --json` from a run of this "
                "version"
            )
        return FairnessAudit(
            groups=[GroupAudit.from_json(entry) for entry in payload["groups"]],
            metrics=tuple(payload["metrics"]),
            n_records=int(payload["n_records"]),
        )


def load_baseline(path: str | Path) -> FairnessAudit:
    """Read a baseline file: the JSON ``obs-audit STORE --json`` prints.

    The audit is the file's ``audit`` key. Raises :class:`ValueError`
    naming what is wrong when the file is missing, is not JSON, has no
    ``audit`` object, or holds an audit of another format or a
    malformed one.
    """
    try:
        text = Path(path).read_text()
    except OSError as error:
        raise ValueError(f"cannot read it ({error.strerror})") from None
    try:
        payload = json.loads(text)
    except ValueError:
        raise ValueError("it is not JSON") from None
    if not isinstance(payload, dict) or not isinstance(payload.get("audit"), dict):
        raise ValueError(
            "it has no 'audit' object; write a baseline with "
            "`python -m repro obs-audit STORE --json`"
        )
    try:
        return FairnessAudit.from_json(payload["audit"])
    except (KeyError, TypeError) as error:
        raise ValueError(f"its audit is malformed ({error!r})") from None


def _defined(value: float) -> float | None:
    return None if math.isnan(value) else value


def build_audit(
    store,
    metrics: Sequence[str] = AUDIT_METRICS,
) -> FairnessAudit:
    """Classify a result store into its :class:`FairnessAudit`.

    Regroups :class:`~repro.benchmark.ImpactAnalysis`'s impacts per
    configuration × group, sorted by configuration: the analysis reads
    the store once and pairs each configuration's runs in (repetition,
    tuning seed) order, so serial and parallel runs of the same grid
    audit identically.
    """
    from repro.benchmark.impact import ImpactAnalysis

    analysis = ImpactAnalysis(store)
    by_group: dict[tuple[str, ...], list] = {}
    for metric in metrics:
        for impact in analysis.impacts(metric):
            key = (
                impact.dataset,
                impact.error_type,
                impact.detection,
                impact.repair,
                impact.model,
                impact.group_key,
            )
            by_group.setdefault(key, []).append(impact)
    groups = []
    # stable: a configuration's groups keep their group-key order
    for key, per_metric in sorted(by_group.items(), key=lambda item: item[0][:5]):
        first = per_metric[0]
        groups.append(
            GroupAudit(
                *key,
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
    return FairnessAudit(
        groups=groups, metrics=tuple(metrics), n_records=analysis.n_records
    )


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


def render_audit(audit: FairnessAudit, top: int = 10) -> str:
    """Plain-text audit summary: verdict tallies and worst widenings."""
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
