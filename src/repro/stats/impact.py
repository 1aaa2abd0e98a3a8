"""Impact classification via paired t-tests (CleanML protocol).

For each configuration the benchmark produces two vectors of scores —
one from the "dirty" baseline models and one from the models trained
after cleaning. Following CleanML, the impact of cleaning on a score
is classified with a paired t-test at threshold p = .05, adjusted by a
Bonferroni correction for the number of simultaneous hypotheses:

- *better*  — significant difference in the improving direction,
- *worse*   — significant difference in the degrading direction,
- *insignificant* — otherwise.

For accuracy, "improving" means a larger value. For fairness
disparities, "improving" means a smaller absolute disparity.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

import numpy as np


class Impact(enum.Enum):
    """Direction of a cleaning technique's effect on a score."""

    WORSE = "worse"
    INSIGNIFICANT = "insignificant"
    BETTER = "better"


class Classification(NamedTuple):
    """An :class:`Impact` verdict and the paired-t p-value behind it."""

    impact: Impact
    p_value: float


def paired_t_test(baseline: np.ndarray, treated: np.ndarray) -> float:
    """Two-sided paired t-test p-value (1.0 for degenerate inputs).

    NaN pairs (which occur when a fairness metric is undefined on some
    run, e.g. no positive predictions in a group) are dropped. The
    p-value is bit-equal to SciPy's ``ttest_rel(treated,
    baseline).pvalue``, computed with the same operations on top of
    ``scipy.special.stdtr``.
    """
    baseline = np.asarray(baseline, dtype=np.float64)
    treated = np.asarray(treated, dtype=np.float64)
    if baseline.shape != treated.shape:
        raise ValueError(
            f"shape mismatch: baseline {baseline.shape} vs treated {treated.shape}"
        )
    keep = ~(np.isnan(baseline) | np.isnan(treated))
    baseline, treated = baseline[keep], treated[keep]
    if baseline.size < 2:
        return 1.0
    differences = treated - baseline
    if np.allclose(differences, 0.0):
        return 1.0
    from scipy import special  # deferred, see repro.stats.gtest

    n = np.float64(differences.size)
    mean = np.mean(differences)
    variance = np.mean((differences - mean) ** 2) * (n / (n - 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        t = mean / np.sqrt(variance / n)
    p_value = float(2 * special.stdtr(n - 1, -np.abs(t)))
    return 1.0 if np.isnan(p_value) else p_value


def classify_impact(
    baseline: np.ndarray,
    treated: np.ndarray,
    higher_is_better: bool,
    use_magnitude: bool = False,
    alpha: float = 0.05,
    n_hypotheses: int = 1,
) -> Classification:
    """Classify cleaning impact on a score vector pair.

    Returns the verdict together with the (unadjusted) two-sided
    p-value of the one paired t-test that decided it.

    Args:
        baseline: Scores of the dirty baseline (one per run).
        treated: Scores after cleaning (paired with baseline).
        higher_is_better: True for accuracy-like scores.
        use_magnitude: Compare |score| instead of the signed score —
            used for fairness disparities, where values closer to zero
            are fairer regardless of sign.
        alpha: Base significance threshold (.05 in the paper).
        n_hypotheses: Bonferroni divisor for multiple testing.
    """
    if n_hypotheses < 1:
        raise ValueError(f"n_hypotheses must be >= 1, got {n_hypotheses}")
    baseline = np.asarray(baseline, dtype=np.float64)
    treated = np.asarray(treated, dtype=np.float64)
    if use_magnitude:
        baseline = np.abs(baseline)
        treated = np.abs(treated)
        higher_is_better = False
    p_value = paired_t_test(baseline, treated)
    threshold = alpha / n_hypotheses
    if p_value >= threshold:
        return Classification(Impact.INSIGNIFICANT, p_value)
    keep = ~(np.isnan(baseline) | np.isnan(treated))
    mean_change = float(np.mean(treated[keep] - baseline[keep]))
    improved = mean_change > 0 if higher_is_better else mean_change < 0
    return Classification(Impact.BETTER if improved else Impact.WORSE, p_value)
