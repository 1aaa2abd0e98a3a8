"""G² likelihood-ratio test of independence for 2x2 tables.

Used in the paper's RQ1 analysis: does the *flagged / not flagged*
status of a tuple depend on its *privileged / disadvantaged* group
membership? The statistic is

    G² = 2 * sum_ij O_ij * ln(O_ij / E_ij)

which is asymptotically chi-squared with 1 degree of freedom for a
2x2 table. The paper's significance threshold (p = .05) is the default.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GTestResult:
    """Outcome of a G² independence test.

    Attributes:
        statistic: The G² statistic.
        p_value: Chi-squared (df from table shape) tail probability.
        dof: Degrees of freedom.
        significant: Whether p < alpha.
    """

    statistic: float
    p_value: float
    dof: int
    significant: bool


def g_test(observed: np.ndarray, alpha: float = 0.05) -> GTestResult:
    """G² test of independence on a contingency table.

    Args:
        observed: A 2-d array of non-negative counts.
        alpha: Significance threshold.

    Rows or columns with a zero marginal contribute no information and
    are dropped before testing; if fewer than 2 rows and columns
    remain, the result is "not significant" with p = 1.
    """
    observed = np.asarray(observed, dtype=np.float64)
    if observed.ndim != 2:
        raise ValueError(f"contingency table must be 2-d, got shape {observed.shape}")
    if (observed < 0).any():
        raise ValueError("counts must be non-negative")
    observed = observed[observed.sum(axis=1) > 0][:, observed.sum(axis=0) > 0]
    if observed.shape[0] < 2 or observed.shape[1] < 2:
        return GTestResult(statistic=0.0, p_value=1.0, dof=0, significant=False)
    total = observed.sum()
    expected = np.outer(observed.sum(axis=1), observed.sum(axis=0)) / total
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = observed * np.log(observed / expected)
    terms = np.where(observed > 0, terms, 0.0)
    statistic = float(2.0 * terms.sum())
    dof = (observed.shape[0] - 1) * (observed.shape[1] - 1)
    # deferred: importing scipy.stats costs ~0.4 s and ~23 MB of RSS,
    # which a study process (that never tests) should not pay
    from scipy import stats as scipy_stats

    p_value = float(scipy_stats.chi2.sf(statistic, dof))
    return GTestResult(
        statistic=statistic,
        p_value=p_value,
        dof=dof,
        significant=p_value < alpha,
    )


def g_test_counts(
    flagged_privileged: int,
    total_privileged: int,
    flagged_disadvantaged: int,
    total_disadvantaged: int,
    alpha: float = 0.05,
) -> GTestResult:
    """G² test from the four counts the RQ1 analysis produces."""
    if flagged_privileged > total_privileged:
        raise ValueError("flagged_privileged exceeds total_privileged")
    if flagged_disadvantaged > total_disadvantaged:
        raise ValueError("flagged_disadvantaged exceeds total_disadvantaged")
    table = np.array(
        [
            [flagged_privileged, total_privileged - flagged_privileged],
            [flagged_disadvantaged, total_disadvantaged - flagged_disadvantaged],
        ],
        dtype=np.float64,
    )
    return g_test(table, alpha=alpha)
