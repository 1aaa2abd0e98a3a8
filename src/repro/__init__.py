"""repro — reproduction of "Automated Data Cleaning Can Hurt Fairness
in Machine Learning-based Decision Making" (Guha et al., ICDE 2023).

The package rebuilds the paper's full experimental apparatus from
scratch on numpy/scipy:

- :mod:`repro.tabular` — columnar table substrate,
- :mod:`repro.ml` — classifiers, preprocessing, model selection,
- :mod:`repro.cleaning` — error detection and automated repair,
- :mod:`repro.fairness` — protected groups and fairness metrics,
- :mod:`repro.stats` — G² test and paired-t-test impact protocol,
- :mod:`repro.datasets` — the five benchmark datasets (synthetic),
- :mod:`repro.benchmark` — the experimentation framework (Fig. 3),
- :mod:`repro.obs` — structured tracing, metrics and run health,
- :mod:`repro.reporting` — paper-style table/figure renderers.

Quickstart::

    from repro import ImpactAnalysis, ResultStore, StudyConfig, run_parallel_study

    store = ResultStore("results.json")
    run_parallel_study(
        StudyConfig.laptop_scale(),
        store,
        datasets=["german"],
        error_types=["missing_values"],
    )
    analysis = ImpactAnalysis(store)
    matrix = analysis.matrix("missing_values", "PP", intersectional=False)
"""

from repro import obs
from repro.benchmark import (
    DeepDive,
    DisparityAnalysis,
    ExperimentRunner,
    FairnessAwareSelector,
    ImpactAnalysis,
    ResultStore,
    StudyConfig,
    run_parallel_study,
)
from repro.datasets import DATASET_NAMES, dataset_definition, load_dataset

__version__ = "1.0.0"

__all__ = [
    "StudyConfig",
    "ResultStore",
    "ExperimentRunner",
    "run_parallel_study",
    "ImpactAnalysis",
    "DisparityAnalysis",
    "DeepDive",
    "FairnessAwareSelector",
    "DATASET_NAMES",
    "dataset_definition",
    "load_dataset",
    "obs",
    "__version__",
]
