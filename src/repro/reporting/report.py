"""Full study report generation.

Builds a single markdown document from a populated result store: all
twelve impact matrices, the model table, the case analysis and the
technique analyses — the machine-written counterpart of the paper's
Section V and VI. Used by ``python -m repro`` consumers and the
EXPERIMENTS.md workflow.
"""

from __future__ import annotations

from collections import Counter

from repro.benchmark.deepdive import DeepDive
from repro.benchmark.impact import ImpactAnalysis, ImpactMatrix
from repro.benchmark.results import ResultStore
from repro.reporting.tables import (
    render_case_counts,
    render_impact_matrix,
    render_model_table,
)
from repro.stats.impact import Impact

#: (table number, error type, metric, intersectional) in paper order.
TABLE_PLAN: tuple[tuple[str, str, str, bool], ...] = (
    ("II", "missing_values", "PP", False),
    ("III", "missing_values", "EO", False),
    ("IV", "missing_values", "PP", True),
    ("V", "missing_values", "EO", True),
    ("VI", "outliers", "PP", False),
    ("VII", "outliers", "EO", False),
    ("VIII", "outliers", "PP", True),
    ("IX", "outliers", "EO", True),
    ("X", "mislabels", "PP", False),
    ("XI", "mislabels", "EO", False),
    ("XII", "mislabels", "PP", True),
    ("XIII", "mislabels", "EO", True),
)


def _matrix_headline(matrix: ImpactMatrix) -> str:
    """One-sentence summary of a non-empty 3x3 matrix's fairness margins."""
    worse = matrix.fairness_marginal(Impact.WORSE)
    better = matrix.fairness_marginal(Impact.BETTER)
    accuracy_worse = matrix.accuracy_marginal(Impact.WORSE)
    accuracy_better = matrix.accuracy_marginal(Impact.BETTER)
    return (
        f"fairness worse in {100 * worse / matrix.total:.1f}% / better in "
        f"{100 * better / matrix.total:.1f}% of configurations; accuracy "
        f"worse in {100 * accuracy_worse / matrix.total:.1f}% / better in "
        f"{100 * accuracy_better / matrix.total:.1f}%."
    )


def paper_tables(
    analysis: ImpactAnalysis,
) -> tuple[list[tuple[tuple[str, str, str, bool], ImpactMatrix]], DeepDive | None]:
    """Tables II–XIII and the Table XIV deep dive from one analysis.

    Returns the non-empty :data:`TABLE_PLAN` matrices in paper order,
    each with its plan entry, and the :class:`DeepDive` over every
    error type's single-attribute PP and EO impacts (None when there
    are none).
    """
    matrices = []
    for entry in TABLE_PLAN:
        __, error_type, metric, intersectional = entry
        matrix = analysis.matrix(error_type, metric, intersectional=intersectional)
        if matrix.total:
            matrices.append((entry, matrix))
    impacts = [
        impact
        for error_type in ("missing_values", "outliers", "mislabels")
        for metric in ("PP", "EO")
        for impact in analysis.configuration_impacts(
            error_type, metric, intersectional=False
        )
    ]
    return matrices, DeepDive(impacts) if impacts else None


def build_study_report(store: ResultStore, title: str = "Study report") -> str:
    """Render a complete markdown report from a result store."""
    matrices, deepdive = paper_tables(ImpactAnalysis(store))
    sections = [f"# {title}", "", f"Result store: {len(store)} run records.", ""]
    for (number, error_type, metric, intersectional), matrix in matrices:
        group = "intersectional" if intersectional else "single-attribute"
        sections += [
            f"## Table {number}: {error_type}, {group} groups, {metric}",
            "",
            "```",
            render_impact_matrix(matrix, f"Table {number}"),
            "```",
            "",
            f"Headline: {_matrix_headline(matrix)}",
            "",
        ]
    if deepdive is None:
        return "\n".join(sections)
    dummy = deepdive.dummy_vs_mode_imputation()
    sections += [
        "## Table XIV: model choice",
        "",
        "```",
        render_model_table(deepdive.model_summaries(), "Table XIV"),
        "```",
        "",
        "## Section VI deep dive",
        "",
        "```",
        render_case_counts(deepdive.case_counts(), "Cases"),
        "```",
        "",
        f"- Categorical imputation: dummy improves fairness in "
        f"{dummy['dummy']} configurations vs {dummy['other']} for mode.",
    ]
    rates = deepdive.detection_worsening_rates()
    for name in ("outliers_sd", "outliers_iqr", "outliers_if"):
        if name in rates:
            sections.append(
                f"- {name}: worsens fairness in {100 * rates[name]:.1f}% "
                "of its configurations."
            )
    winner_counts = Counter(deepdive.accuracy_leaderboard().values())
    ranked = ", ".join(
        f"{model} ({count})" for model, count in winner_counts.most_common()
    )
    sections.append(f"- Best-accuracy model per dataset/error pair: {ranked}.")
    return "\n".join(sections)
