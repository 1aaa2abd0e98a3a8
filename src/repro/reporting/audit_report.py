"""Markdown fairness-audit report (CI artifact + human review).

Renders a :class:`repro.obs.FairnessAudit` — optionally with a
baseline :class:`repro.obs.AuditDiff` — as a standalone markdown
document. Everything is duck-typed on the audit objects' public
attributes so this module never imports :mod:`repro.obs` (reporting
stays a leaf package).
"""

from __future__ import annotations

from typing import Any


def _fmt(value: float | None, digits: int = 3) -> str:
    if value is None:
        return "—"
    return f"{value:+.{digits}f}" if value < 0 else f"{value:.{digits}f}"


def _fmt_delta(value: float | None, digits: int = 3) -> str:
    if value is None:
        return "—"
    return f"{value:+.{digits}f}"


def _fmt_verdict(verdict: Any) -> str:
    if verdict is None:
        return "—"
    return f"{verdict[0]} (p={verdict[1]:.4f})"


def render_fairness_audit(
    audit: Any,
    diff: Any | None = None,
    title: str = "Fairness audit",
    top: int = 15,
) -> str:
    """Render an audit (and optional baseline diff) as markdown.

    ``audit`` needs ``metrics``, ``n_records`` and ``groups`` (each
    group exposing ``coordinate``, ``n_runs``, ``dirty_acc``,
    ``repaired_acc``, ``gaps``, ``fairness`` and ``widening(metric)``);
    ``diff`` needs ``regressions`` / ``improvements`` / ``underpowered``
    (see :class:`repro.obs.AuditDiff`).
    """
    metrics = list(audit.metrics)
    lines = [f"# {title}", ""]
    lines.append(
        f"{audit.n_records} records, {len(audit.groups)} audited "
        f"(dataset, error type, detection, repair, model, group) "
        f"coordinates, metrics: {', '.join(metrics)}."
    )
    lines.append("")

    if diff is not None:
        regressions = diff.regressions
        improvements = diff.improvements
        verdict = (
            f"**{len(regressions)} fairness regression(s)** vs baseline"
            if regressions
            else "**No fairness regressions** vs baseline"
        )
        lines.append(
            f"{verdict} (a paired t-test fairness verdict moved toward "
            f"worse); {len(improvements)} verdict(s) moved toward better."
        )
        if diff.underpowered:
            lines.append(
                f"{diff.underpowered} coordinate(s) have fewer than 2 paired "
                "runs, so their verdicts are always insignificant."
            )
        lines.append("")
        for heading, findings in (
            ("Regressions", regressions),
            ("Improvements", improvements),
        ):
            if not findings:
                continue
            lines.append(f"## {heading}")
            lines.append("")
            lines.append(
                "| coordinate | baseline verdict | candidate verdict "
                "| baseline gap | candidate gap |"
            )
            lines.append("|---|---|---|---|---|")
            for finding in findings:
                lines.append(
                    f"| `{finding.coordinate}` "
                    f"| {_fmt_verdict(finding.baseline)} "
                    f"| {_fmt_verdict(finding.candidate)} "
                    f"| {_fmt(finding.baseline_gap)} "
                    f"| {_fmt(finding.candidate_gap)} |"
                )
            lines.append("")

    # worst widenings across the whole audit: cleaning hurt these most
    widenings = []
    for group in audit.groups:
        for metric in metrics:
            widening = group.widening(metric)
            if widening is not None and widening > 0:
                widenings.append((widening, group, metric))
    widenings.sort(key=lambda item: (-item[0], item[1].coordinate, item[2]))
    lines.append("## Worst widenings (repair widened the disparity)")
    lines.append("")
    if widenings:
        lines.append(
            "| coordinate | metric | dirty gap | repaired gap | widening "
            "| verdict |"
        )
        lines.append("|---|---|---|---|---|---|")
        for widening, group, metric in widenings[:top]:
            dirty, repaired = group.gaps[metric]
            lines.append(
                f"| `{group.coordinate}` | {metric} "
                f"| {_fmt(dirty)} | {_fmt(repaired)} "
                f"| {_fmt_delta(widening)} "
                f"| {_fmt_verdict(group.fairness.get(metric))} |"
            )
        if len(widenings) > top:
            lines.append("")
            lines.append(f"… and {len(widenings) - top} more.")
    else:
        lines.append("No repair widened any audited disparity.")
    lines.append("")

    lines.append("## Audited coordinates")
    lines.append("")
    header = "| coordinate | runs | dirty acc | repaired acc |"
    divider = "|---|---|---|---|"
    for metric in metrics:
        header += f" {metric} dirty→repaired |"
        divider += "---|"
    lines.append(header)
    lines.append(divider)
    for group in audit.groups:
        row = (
            f"| `{group.coordinate}` | {group.n_runs} "
            f"| {_fmt(group.dirty_acc)} | {_fmt(group.repaired_acc)} |"
        )
        for metric in metrics:
            dirty, repaired = group.gaps.get(metric, (None, None))
            verdict = group.fairness.get(metric)
            label = "" if verdict is None else f" ({verdict[0]})"
            row += f" {_fmt(dirty)}→{_fmt(repaired)}{label} |"
        lines.append(row)
    lines.append("")
    return "\n".join(lines)
