"""Table XIV + the Section VI deep dive.

- Table XIV: per-model impact of auto-cleaning on fairness and
  accuracy over all single-attribute configurations.
- Case analysis: for how many (metric, dataset+attribute, error type)
  cases does a non-worsening / improving / win-win technique exist?
- Technique analysis: dummy-vs-mode imputation and per-detector
  worsening rates for outliers.
"""

from conftest import save_artifact

from repro import ImpactAnalysis
from repro.reporting import render_case_counts, render_model_table
from repro.reporting.report import paper_tables


def build_report(store) -> str:
    __, deepdive = paper_tables(ImpactAnalysis(store))
    sections = [
        render_model_table(
            deepdive.model_summaries(),
            "TABLE XIV: SINGLE-ATTRIBUTE ANALYSIS — IMPACT OF AUTO-CLEANING "
            f"ON ACCURACY AND\nFAIRNESS FOR DIFFERENT ML MODELS ON "
            f"{len(deepdive.impacts)} CONFIGURATIONS IN TOTAL.",
        ),
        render_case_counts(
            deepdive.case_counts(),
            "SECTION VI: FOR WHICH CASES IS CLEANING POTENTIALLY BENEFICIAL?",
        ),
    ]
    dummy = deepdive.dummy_vs_mode_imputation()
    sections.append(
        "SECTION VI: CATEGORICAL IMPUTATION — fairness improvements\n"
        f"  dummy imputation:    {dummy['dummy']}\n"
        f"  mode imputation:     {dummy['other']}"
    )
    rates = deepdive.detection_worsening_rates()
    lines = ["SECTION VI: OUTLIER DETECTION — share of configurations worsening fairness"]
    for name in ("outliers_sd", "outliers_iqr", "outliers_if"):
        if name in rates:
            lines.append(f"  {name:<14} {100 * rates[name]:.1f}%")
    sections.append("\n".join(lines))
    return "\n\n".join(sections)


def test_table14_deepdive(benchmark, study_store):
    text = benchmark.pedantic(
        build_report, args=(study_store,), rounds=1, iterations=1
    )
    save_artifact("table14_deepdive.txt", text)
    assert "TABLE XIV" in text
    assert "log_reg" in text
