"""Renderers for the paper's tables.

Each renderer returns a plain-text table whose rows and columns match
the corresponding table in the paper, so paper-vs-measured comparison
is a side-by-side read.
"""

from __future__ import annotations

from repro.benchmark.deepdive import ModelSummary
from repro.benchmark.impact import ImpactMatrix
from repro.stats.impact import Impact


def _cell(matrix: ImpactMatrix, fairness: Impact, accuracy: Impact) -> str:
    if matrix.total == 0:
        return "-"
    fraction = matrix.fraction(fairness, accuracy)
    return f"{100 * fraction:.1f}% ({matrix.count(fairness, accuracy)})"


def render_impact_matrix(matrix: ImpactMatrix, title: str) -> str:
    """Render a 3x3 fairness × accuracy impact matrix (Tables II-XIII)."""
    header = ["fair. \\ acc."] + [a.value for a in Impact] + ["total"]
    rows = [header]
    for fairness in Impact:
        row = [fairness.value]
        for accuracy in Impact:
            row.append(_cell(matrix, fairness, accuracy))
        marginal = matrix.fairness_marginal(fairness)
        share = 100 * marginal / matrix.total if matrix.total else 0.0
        row.append(f"{share:.1f}% ({marginal})")
        rows.append(row)
    footer = ["total"]
    for accuracy in Impact:
        marginal = matrix.accuracy_marginal(accuracy)
        share = 100 * marginal / matrix.total if matrix.total else 0.0
        footer.append(f"{share:.1f}% ({marginal})")
    footer.append(f"100% ({matrix.total})")
    rows.append(footer)
    return f"{title}\n{_render_grid(rows)}"


def render_model_table(summaries: list[ModelSummary], title: str) -> str:
    """Render Table XIV (per-model impact of auto-cleaning)."""
    rows = [
        ["model", "fairness worse", "fairness better", "fairness & accuracy better"]
    ]
    for summary in summaries:
        rows.append(
            [
                summary.model,
                f"{100 * summary.fairness_worse_fraction:.1f}% "
                f"({summary.fairness_worse})",
                f"{100 * summary.fairness_better_fraction:.1f}% "
                f"({summary.fairness_better})",
                f"{100 * summary.both_better_fraction:.1f}% "
                f"({summary.both_better})",
            ]
        )
    return f"{title}\n{_render_grid(rows)}"


def render_dataset_table(rows: list[dict], title: str) -> str:
    """Render Table I (dataset summary).

    Each row dict needs: name, source, n_tuples, sensitive_attributes.
    """
    grid = [["name", "source", "number of tuples", "sensitive attributes"]]
    for row in rows:
        grid.append(
            [
                row["name"],
                row["source"],
                f"{row['n_tuples']:,}",
                ", ".join(row["sensitive_attributes"]),
            ]
        )
    return f"{title}\n{_render_grid(grid)}"


def render_case_counts(counts: dict[str, int], title: str) -> str:
    """Render the §VI case-analysis counts (the 37/40-style numbers)."""
    total = counts["total"]
    lines = [
        title,
        f"  cases analysed:                      {total}",
        f"  with a non-worsening technique:      {counts['non_worsening']} / {total}",
        f"  with a fairness-improving technique: {counts['fairness_improving']} / {total}",
        f"  with a fairness & accuracy win-win:  {counts['win_win']} / {total}",
    ]
    return "\n".join(lines)


def _render_grid(rows: list[list[str]]) -> str:
    widths = [
        max(len(str(row[i])) for row in rows) for i in range(len(rows[0]))
    ]
    lines = []
    for index, row in enumerate(rows):
        lines.append(
            "  ".join(str(cell).ljust(width) for cell, width in zip(row, widths))
        )
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)
