"""Text renderers for the paper's tables and figures."""

from repro.reporting.tables import (
    render_case_counts,
    render_dataset_table,
    render_impact_matrix,
    render_model_table,
)
from repro.reporting.figures import render_disparity_figure
from repro.reporting.report import build_study_report

__all__ = [
    "build_study_report",
    "render_impact_matrix",
    "render_model_table",
    "render_dataset_table",
    "render_case_counts",
    "render_disparity_figure",
]
