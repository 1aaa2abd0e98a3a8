"""Fairness-aware data valuation.

Scores each training tuple's contribution to the *disparity* between
the privileged and disadvantaged groups, in the spirit of Karlaš et
al. (2022, "Data debugging with Shapley importance over end-to-end ML
pipelines"), whom the paper cites as the starting point for
fairness-aware cleaning.

The construction: compute kNN-Shapley values twice, once with the
utility restricted to the privileged test tuples and once restricted
to the disadvantaged ones. The *disparity value* of a training tuple
is its contribution to (privileged utility - disadvantaged utility).
For the equal-opportunity flavour, the utilities are restricted to
positive-label test tuples (group-wise recall). Tuples with large
positive disparity values push the model toward the privileged group;
they are the natural candidates for fairness-aware cleaning.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.valuation.knn_shapley import knn_shapley


@dataclass(frozen=True)
class ValuationResult:
    """Per-training-tuple valuation outcome.

    Attributes:
        accuracy_values: Shapley values under the overall kNN utility.
        privileged_values: Values under the privileged-group utility.
        disadvantaged_values: Values under the disadvantaged-group utility.
        disparity_values: privileged_values - disadvantaged_values.
    """

    accuracy_values: np.ndarray
    privileged_values: np.ndarray
    disadvantaged_values: np.ndarray

    @property
    def disparity_values(self) -> np.ndarray:
        """Contribution to the privileged-vs-disadvantaged utility gap."""
        return self.privileged_values - self.disadvantaged_values

    def widening_gap(
        self, current_disparity: float, quantile: float = 0.95
    ) -> np.ndarray:
        """Tuples that push the model further in the gap's direction.

        ``current_disparity`` is the signed privileged-minus-
        disadvantaged disparity of the deployed model; the mask flags
        the tuples whose disparity value most strongly *widens* that
        gap (positive values when the privileged group is ahead,
        negative values when the disadvantaged group is ahead).
        """
        if not 0.0 < quantile < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {quantile}")
        oriented = (
            self.disparity_values
            if current_disparity >= 0
            else -self.disparity_values
        )
        threshold = np.quantile(oriented, quantile)
        return oriented > threshold


class FairnessShapleyValuator:
    """Computes fairness-aware kNN-Shapley valuations.

    Args:
        k: Neighbourhood size of the kNN utility.
        recall_only: Restrict the group utilities to positive-label
            test tuples — the equal-opportunity (recall-parity)
            flavour. When False, group utilities are group accuracies.
    """

    def __init__(self, k: int = 5, recall_only: bool = False) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k
        self.recall_only = recall_only

    def value(
        self,
        X_train: np.ndarray,
        y_train: np.ndarray,
        X_test: np.ndarray,
        y_test: np.ndarray,
        privileged_test: np.ndarray,
        disadvantaged_test: np.ndarray,
    ) -> ValuationResult:
        """Run the three valuations.

        Args:
            privileged_test / disadvantaged_test: Boolean masks over
                the test tuples (need not partition them — mixed
                tuples of intersectional definitions are excluded).
        """
        X_test = np.asarray(X_test, dtype=np.float64)
        y_test = np.asarray(y_test).astype(np.int64)
        privileged_test = np.asarray(privileged_test, dtype=bool)
        disadvantaged_test = np.asarray(disadvantaged_test, dtype=bool)
        if privileged_test.shape != (len(y_test),) or disadvantaged_test.shape != (
            len(y_test),
        ):
            raise ValueError("group masks must match the test set length")
        if self.recall_only:
            privileged_test = privileged_test & (y_test == 1)
            disadvantaged_test = disadvantaged_test & (y_test == 1)
        if not privileged_test.any() or not disadvantaged_test.any():
            raise ValueError(
                "both groups need at least one (positive) test tuple"
            )
        accuracy_values = knn_shapley(X_train, y_train, X_test, y_test, k=self.k)
        privileged_values = knn_shapley(
            X_train,
            y_train,
            X_test[privileged_test],
            y_test[privileged_test],
            k=self.k,
        )
        disadvantaged_values = knn_shapley(
            X_train,
            y_train,
            X_test[disadvantaged_test],
            y_test[disadvantaged_test],
            k=self.k,
        )
        return ValuationResult(
            accuracy_values=accuracy_values,
            privileged_values=privileged_values,
            disadvantaged_values=disadvantaged_values,
        )
