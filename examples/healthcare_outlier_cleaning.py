"""Healthcare scenario: should we auto-clean blood-pressure outliers?

The heart dataset is famous for blood-pressure data-entry errors
(values like -120 or 16020). The obvious engineering response is to
auto-repair them — but the paper warns that outlier cleaning is the
intervention most likely to hurt accuracy while quietly shifting
fairness. This example runs the full dirty-vs-repaired comparison for
all three outlier detectors and repairs on heart and reports the
impact per configuration.

Usage::

    python examples/healthcare_outlier_cleaning.py
"""

from repro import ImpactAnalysis, StudyConfig, load_dataset, run_parallel_study
from repro.benchmark import ResultStore
from repro.cleaning import IqrOutlierDetector, SdOutlierDetector
from repro.reporting import render_impact_matrix


def inspect_detectors() -> None:
    """Show how differently the detectors behave on the raw data."""
    definition, table = load_dataset("heart", n_rows=5_000, seed=0)
    features = table.drop_columns([definition.label])
    print("outliers flagged in 5,000 patient records:")
    for detector in (SdOutlierDetector(), IqrOutlierDetector()):
        result = detector.detect(features)
        print(
            f"  {detector.name:<14} {result.n_flagged:>5} tuples "
            f"({100 * result.flagged_fraction():.1f}%)"
        )
    ap_hi = table.column("ap_hi")
    print(
        f"  (systolic pressure ranges from {ap_hi.min():.0f} to "
        f"{ap_hi.max():.0f} — clear entry errors)\n"
    )


def main() -> None:
    inspect_detectors()

    config = StudyConfig(n_sample=800, n_repetitions=6, models=("log_reg",))
    store = ResultStore()
    print("running the heart / outliers configurations ...")
    added = run_parallel_study(
        config, store, datasets=["heart"], error_types=["outliers"]
    )
    print(f"evaluated {added} cleaning configurations x 6 splits\n")

    analysis = ImpactAnalysis(store)
    matrix = analysis.matrix("outliers", "EO", intersectional=False)
    print(
        render_impact_matrix(
            matrix,
            "Impact of auto-cleaning outliers on heart "
            "(single-attribute groups, equal opportunity)",
        )
    )

    print("\nper-configuration detail (equal opportunity, sex):")
    for impact in analysis.configuration_impacts(
        "outliers", "EO", intersectional=False
    ):
        if impact.group_key != "sex":
            continue
        print(
            f"  {impact.detection:<13} + {impact.repair:<21} "
            f"fairness={impact.fairness_impact.value:<14}"
            f" accuracy={impact.accuracy_impact.value:<14}"
            f" acc {impact.mean_dirty_accuracy:.3f} -> "
            f"{impact.mean_clean_accuracy:.3f}"
        )


if __name__ == "__main__":
    main()
