"""Bring your own dataset: declarative definitions + fairness-aware selection.

Shows the two extension points a downstream user needs:

1. Register a *custom* dataset with a declarative
   :class:`DatasetDefinition` (the paper's Listing 1) — here a small
   synthetic hiring dataset read from CSV — and run the full
   evaluation process on it.
2. Use the :class:`FairnessAwareSelector` (the paper's §VII vision)
   to pick, per fairness metric, a cleaning technique that does not
   worsen fairness.

Usage::

    python examples/custom_dataset_study.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import (
    FairnessAwareSelector,
    ImpactAnalysis,
    StudyConfig,
    run_parallel_study,
)
from repro.benchmark import ResultStore
from repro.datasets import DatasetDefinition
from repro.datasets import synthetic as syn
from repro.fairness.groups import Comparison, GroupPredicate
from repro.tabular import Table, read_csv, write_csv


def make_hiring_table(n_rows: int, seed: int) -> Table:
    """A small hiring dataset with organically missing references."""
    rng = np.random.default_rng(seed)
    sex = syn.categorical(rng, n_rows, ["male", "female"], [0.55, 0.45])
    is_male = sex.eq("male")
    experience = np.clip(rng.gamma(2.0, 4.0, size=n_rows), 0, 40).round()
    education = syn.categorical(
        rng, n_rows, ["hs", "bachelor", "master"], [0.3, 0.5, 0.2]
    )
    edu_score = np.array(
        [
            {"hs": 0.0, "bachelor": 1.0, "master": 2.0}[value]
            for value in education.decode()
        ]
    )
    interview_score = syn.clipped_normal(rng, n_rows, 6.0, 2.0, 0, 10)
    latent = (
        -6.0 + 0.25 * experience + 1.2 * edu_score + 0.45 * interview_score
    )
    hired = (rng.random(n_rows) < syn.sigmoid(latent)).astype(np.float64)
    # reference checks go missing more often for female applicants
    reference_score = syn.clipped_normal(rng, n_rows, 7.0, 1.5, 0, 10)
    missing_probability = syn.group_dependent_probability(0.05, 3.0, ~is_male)
    reference_score = syn.inject_missing_numeric(
        rng, reference_score, missing_probability
    )
    return Table.from_columns(
        {
            "experience_years": experience,
            "education": education,
            "interview_score": interview_score,
            "reference_score": reference_score,
            "sex": sex,
            "hired": hired,
        }
    )


def main() -> None:
    # 1. persist the dataset as CSV and define a loader over it — the
    #    usual shape for real-world data
    csv_path = Path(tempfile.mkdtemp()) / "hiring.csv"
    table = make_hiring_table(3_000, seed=0)
    write_csv(table, csv_path)
    print(f"wrote {table.n_rows} applications to {csv_path}")

    def load_from_csv(n_rows: int, seed: int) -> Table:
        loaded = read_csv(csv_path, table.schema)
        rng = np.random.default_rng(seed)
        return loaded.sample_rows(min(n_rows, loaded.n_rows), rng)

    # the declarative definition — this is all the framework needs to
    # compute fairness metrics automatically (paper Listing 1)
    hiring = DatasetDefinition(
        name="hiring",
        source_domain="employment",
        generator=load_from_csv,
        default_n_rows=3_000,
        label="hired",
        error_types=("missing_values",),
        drop_variables=("sex",),
        privileged_groups=(GroupPredicate("sex", Comparison.EQ, "male"),),
    )

    # 2. run the study directly against the custom definition (in
    #    process: its CSV-reading closure cannot reach a worker pool)
    table_full = hiring.generate(n_rows=3_000, seed=0)
    print(f"missing reference scores: {table_full.missing_counts()['reference_score']}")

    config = StudyConfig(
        n_sample=1_500,
        n_repetitions=6,
        models=("log_reg",),
        dataset_sizes={"hiring": 3_000},
    )
    store = ResultStore()
    print("running hiring / missing-values configurations ...")
    added = run_parallel_study(
        config, store, datasets=[hiring], error_types=["missing_values"]
    )
    print(f"added {added} run records\n")

    # 3. fairness-aware selection: which imputation should we ship?
    analysis = ImpactAnalysis(store)
    impacts = []
    for metric in ("PP", "EO"):
        impacts.extend(
            analysis.configuration_impacts(
                "missing_values", metric, intersectional=False
            )
        )
    selector = FairnessAwareSelector(impacts)
    for metric in ("PP", "EO"):
        recommendation = selector.recommend("hiring", "sex", metric, "missing_values")
        assert recommendation is not None
        print(
            f"recommended imputation for {metric}: {recommendation.repair} "
            f"(fairness {recommendation.fairness_impact.value}, "
            f"accuracy {recommendation.accuracy_impact.value}, "
            f"safe={recommendation.safe})"
        )


if __name__ == "__main__":
    main()
