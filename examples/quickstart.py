"""Quickstart: does cleaning missing values change fairness on adult?

Runs the paper's Fig-3 evaluation process for a single dataset and
error type, then prints the impact of each imputation technique on
accuracy, predictive parity and equal opportunity.

Usage::

    python examples/quickstart.py
"""

from repro import ImpactAnalysis, StudyConfig, run_parallel_study
from repro.benchmark import ResultStore
from repro.reporting import render_impact_matrix


def main() -> None:
    # a small but statistically meaningful configuration: 10 train/test
    # splits of 2,500 sampled records each, logistic regression only
    config = StudyConfig(
        n_sample=2_500, test_fraction=0.4, n_repetitions=10, models=("log_reg",)
    )
    store = ResultStore()

    print("running the adult / missing-values configurations ...")
    added = run_parallel_study(
        config, store, datasets=["adult"], error_types=["missing_values"]
    )
    print(f"trained and evaluated {2 * added} models ({added} run records)\n")

    analysis = ImpactAnalysis(store)
    for metric in ("PP", "EO"):
        matrix = analysis.matrix("missing_values", metric, intersectional=False)
        print(
            render_impact_matrix(
                matrix,
                f"Impact of cleaning missing values on adult "
                f"(single-attribute groups, {metric})",
            )
        )
        print()

    # per-configuration detail: which technique helps, which hurts?
    print("per-technique detail (predictive parity, sex):")
    for impact in analysis.configuration_impacts(
        "missing_values", "PP", intersectional=False
    ):
        if impact.group_key != "sex":
            continue
        print(
            f"  {impact.repair:<22} fairness={impact.fairness_impact.value:<14}"
            f" accuracy={impact.accuracy_impact.value:<14}"
            f" |PP| {impact.mean_dirty_fairness:.3f} -> "
            f"{impact.mean_clean_fairness:.3f}"
        )


if __name__ == "__main__":
    main()
