"""Statistical machinery.

- :func:`g_test` — the G² likelihood-ratio independence test the
  paper uses to decide whether error incidence differs significantly
  between groups (RQ1).
- :func:`classify_impact` — the CleanML paired-t-test protocol with
  Bonferroni correction used to classify a cleaning technique's impact
  on a score as worse / insignificant / better (RQ2).

Both take their distribution tails from ``scipy.special``, imported
inside the functions that use it, in the arithmetic of SciPy's own
``chi2.sf`` and ``ttest_rel``: the p-values are bit-equal to theirs,
and SciPy's statistics package is never loaded.
"""

from repro.stats.gtest import GTestResult, g_test, g_test_counts
from repro.stats.impact import (
    Classification,
    Impact,
    classify_impact,
    paired_t_test,
)

__all__ = [
    "GTestResult",
    "g_test",
    "g_test_counts",
    "Classification",
    "Impact",
    "classify_impact",
    "paired_t_test",
]
