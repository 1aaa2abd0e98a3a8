"""Registries of the detection/repair combinations used in the study.

The paper evaluates:

- missing values → 6 imputation variants
  (numeric mean/median/mode × categorical mode/dummy),
- outliers → 3 detectors (sd, iqr, isolation forest) × 3 repairs
  (mean/median/mode replacement),
- mislabels → confident learning detection + label flipping.
"""

from __future__ import annotations

from repro.cleaning.detection import (
    IqrOutlierDetector,
    IsolationForestOutlierDetector,
    SdOutlierDetector,
)
from repro.cleaning.repair import (
    CategoricalImputation,
    MissingValueRepair,
    NumericImputation,
    OutlierRepair,
)


def missing_value_repairs() -> dict[str, MissingValueRepair]:
    """Fresh instances of the six imputation variants, keyed by name."""
    repairs = {}
    for numeric in NumericImputation:
        for categorical in CategoricalImputation:
            repair = MissingValueRepair(numeric=numeric, categorical=categorical)
            repairs[repair.name] = repair
    return repairs


def outlier_detectors(random_state: int = 0) -> dict[str, object]:
    """Fresh instances of the three outlier detectors, keyed by name."""
    return {
        "outliers_sd": SdOutlierDetector(),
        "outliers_iqr": IqrOutlierDetector(),
        "outliers_if": IsolationForestOutlierDetector(random_state=random_state),
    }


def outlier_repairs() -> dict[str, OutlierRepair]:
    """Fresh instances of the three outlier repairs, keyed by name."""
    repairs = {}
    for statistic in NumericImputation:
        repair = OutlierRepair(statistic=statistic)
        repairs[repair.name] = repair
    return repairs


# Stable name lists (useful for result-table ordering).
MISSING_VALUE_REPAIRS: tuple[str, ...] = tuple(missing_value_repairs())
OUTLIER_DETECTORS: tuple[str, ...] = ("outliers_sd", "outliers_iqr", "outliers_if")
OUTLIER_REPAIRS: tuple[str, ...] = tuple(outlier_repairs())
