"""Error detection and automated repair.

Implements the paper's five error-detection strategies (missing
values, outliers via standard-deviation / interquartile / isolation-
forest rules, and predicted label errors via confident learning) and
the standard repair methods applied to flagged tuples.
"""

from repro.cleaning.detection import (
    DetectionResult,
    IqrOutlierDetector,
    IsolationForestOutlierDetector,
    MissingValueDetector,
    SdOutlierDetector,
)
from repro.cleaning.mislabels import ConfidentLearningDetector, MislabelResult
from repro.cleaning.repair import (
    CategoricalImputation,
    LabelFlipRepair,
    MissingValueRepair,
    NumericImputation,
    OutlierRepair,
)
from repro.cleaning.strategies import (
    MISSING_VALUE_REPAIRS,
    OUTLIER_DETECTORS,
    OUTLIER_REPAIRS,
)

__all__ = [
    "DetectionResult",
    "MissingValueDetector",
    "SdOutlierDetector",
    "IqrOutlierDetector",
    "IsolationForestOutlierDetector",
    "ConfidentLearningDetector",
    "MislabelResult",
    "NumericImputation",
    "CategoricalImputation",
    "MissingValueRepair",
    "OutlierRepair",
    "LabelFlipRepair",
    "MISSING_VALUE_REPAIRS",
    "OUTLIER_DETECTORS",
    "OUTLIER_REPAIRS",
]
