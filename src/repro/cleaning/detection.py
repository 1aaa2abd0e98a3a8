"""Error-detection strategies.

Each detector produces a :class:`DetectionResult` holding a row-level
mask (was this tuple flagged?) and, for cell-level strategies, a
per-column mask of the offending cells. The paper's parameters are the
defaults: 3 standard deviations, IQR factor 1.5, isolation-forest
contamination 0.01.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.ml.isolation import IsolationForest
from repro.tabular import Table


@dataclass(frozen=True)
class DetectionResult:
    """Outcome of running an error detector over a table.

    Attributes:
        strategy: Name of the detection strategy.
        row_mask: Boolean array, True where the tuple is flagged.
        cell_masks: Per-column boolean masks of flagged cells; empty
            for tuple-level strategies (isolation forest, missing rows).
    """

    strategy: str
    row_mask: np.ndarray
    cell_masks: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def n_flagged(self) -> int:
        """Number of flagged tuples."""
        return int(self.row_mask.sum())

    def flagged_fraction(self) -> float:
        """Fraction of tuples flagged (NaN on an empty table)."""
        if self.row_mask.size == 0:
            return float("nan")
        return float(self.row_mask.mean())


class MissingValueDetector:
    """Flags tuples containing NULL/NaN in any column."""

    name = "missing_values"

    def detect(self, table: Table) -> DetectionResult:
        with obs.span("detect", detector=self.name, rows=table.n_rows) as span:
            cell_masks = {
                name: table.is_missing(name) for name in table.column_names
            }
            row_mask = np.zeros(table.n_rows, dtype=bool)
            for mask in cell_masks.values():
                row_mask |= mask
            result = DetectionResult(self.name, row_mask, cell_masks)
            span.add("flagged", result.n_flagged)
        return result


class _IntervalOutlierDetector:
    """Shared fit/apply plumbing for interval-based univariate detectors.

    ``fit`` learns per-column [low, high] validity intervals from a
    (training) table; ``apply`` flags cells outside those intervals in
    any table with the same numeric columns. ``detect`` is the one-shot
    fit-and-apply convenience used for single-table analyses (RQ1).
    """

    name = "interval"

    def __init__(self) -> None:
        self._bounds: dict[str, tuple[float, float]] | None = None

    def _column_bounds(self, values: np.ndarray) -> tuple[float, float]:
        raise NotImplementedError

    def fit(self, table: Table) -> "_IntervalOutlierDetector":
        """Learn validity intervals from the table's numeric columns."""
        self._bounds = {}
        for name in table.schema.numeric_names():
            values = table.column(name)
            finite = values[~np.isnan(values)]
            if finite.size == 0:
                self._bounds[name] = (-np.inf, np.inf)
            else:
                self._bounds[name] = self._column_bounds(finite)
        return self

    def apply(self, table: Table) -> DetectionResult:
        """Flag cells outside the fitted intervals."""
        if self._bounds is None:
            raise RuntimeError(f"{type(self).__name__} is not fitted")
        with obs.span("detect", detector=self.name, rows=table.n_rows) as span:
            cell_masks: dict[str, np.ndarray] = {}
            row_mask = np.zeros(table.n_rows, dtype=bool)
            for name in table.schema.numeric_names():
                low, high = self._bounds.get(name, (-np.inf, np.inf))
                values = table.column(name)
                finite = ~np.isnan(values)
                mask = np.zeros(table.n_rows, dtype=bool)
                mask[finite] = (values[finite] < low) | (values[finite] > high)
                cell_masks[name] = mask
                row_mask |= mask
            result = DetectionResult(self.name, row_mask, cell_masks)
            span.add("flagged", result.n_flagged)
        return result

    def detect(self, table: Table) -> DetectionResult:
        """Fit on the table and flag its outliers in one step."""
        return self.fit(table).apply(table)


class SdOutlierDetector(_IntervalOutlierDetector):
    """Univariate outliers: values more than ``n_std`` SDs from the mean."""

    name = "outliers_sd"

    def __init__(self, n_std: float = 3.0) -> None:
        super().__init__()
        if n_std <= 0:
            raise ValueError(f"n_std must be positive, got {n_std}")
        self.n_std = n_std

    def _column_bounds(self, values: np.ndarray) -> tuple[float, float]:
        mean = values.mean()
        std = values.std()
        if std == 0.0:
            return (-np.inf, np.inf)
        return (mean - self.n_std * std, mean + self.n_std * std)


class IqrOutlierDetector(_IntervalOutlierDetector):
    """Univariate outliers outside [p25 - k*iqr, p75 + k*iqr]."""

    name = "outliers_iqr"

    def __init__(self, k: float = 1.5) -> None:
        super().__init__()
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        self.k = k

    def _column_bounds(self, values: np.ndarray) -> tuple[float, float]:
        p25, p75 = np.percentile(values, [25, 75])
        iqr = p75 - p25
        return (p25 - self.k * iqr, p75 + self.k * iqr)


class IsolationForestOutlierDetector:
    """Multivariate (tuple-level) outliers via an isolation forest.

    Only numeric columns feed the forest; rows with missing numeric
    values are never flagged (they cannot be scored). Cell masks flag
    every numeric cell of a flagged tuple, so cell-level repairs can be
    applied uniformly across detectors.

    ``fit`` keeps the row flags of the table it was fitted on, taken
    from the scores the forest computed for its threshold; ``apply`` on
    that same table object returns them without scoring its rows again.
    Any other table, even one with equal contents, is scored. Tables
    are immutable by convention, so the flags cannot go stale.
    """

    name = "outliers_if"

    def __init__(
        self,
        contamination: float = 0.01,
        n_estimators: int = 100,
        random_state: int = 0,
    ) -> None:
        self.contamination = contamination
        self.n_estimators = n_estimators
        self.random_state = random_state
        self._forest: IsolationForest | None = None
        self._numeric_names: tuple[str, ...] = ()
        self._fitted_table: weakref.ref[Table] | None = None
        self._fitted_rows = np.zeros(0, dtype=bool)

    def fit(self, table: Table) -> "IsolationForestOutlierDetector":
        """Fit the forest on the table's complete numeric rows."""
        self._numeric_names = table.schema.numeric_names()
        self._forest = None
        self._fitted_table = weakref.ref(table)
        self._fitted_rows = np.zeros(table.n_rows, dtype=bool)
        if self._numeric_names and table.n_rows > 1:
            X = np.column_stack(
                [table.column(name) for name in self._numeric_names]
            )
            complete = ~np.isnan(X).any(axis=1)
            if complete.sum() > 1:
                self._forest = IsolationForest(
                    n_estimators=self.n_estimators,
                    contamination=self.contamination,
                    random_state=self.random_state,
                ).fit(X[complete])
                flags = self._forest.train_outliers_
                self._fitted_rows[np.nonzero(complete)[0][flags]] = True
        return self

    def apply(self, table: Table) -> DetectionResult:
        """Flag tuples the fitted forest scores above its threshold.

        Rows with missing numeric values are never flagged (they
        cannot be scored). The table the detector was fitted on is not
        scored again: its flags come from the fit.
        """
        with obs.span("detect", detector=self.name, rows=table.n_rows) as span:
            if self._fitted_table is not None and self._fitted_table() is table:
                row_mask = self._fitted_rows.copy()
            else:
                row_mask = np.zeros(table.n_rows, dtype=bool)
                if self._forest is not None:
                    X = np.column_stack(
                        [table.column(name) for name in self._numeric_names]
                    )
                    complete = ~np.isnan(X).any(axis=1)
                    if complete.any():
                        flags = self._forest.predict_outliers(X[complete])
                        row_mask[np.nonzero(complete)[0][flags]] = True
            cell_masks = {}
            for name in self._numeric_names:
                mask = row_mask.copy()
                mask &= ~table.is_missing(name)
                cell_masks[name] = mask
            result = DetectionResult(self.name, row_mask, cell_masks)
            span.add("flagged", result.n_flagged)
        return result

    def detect(self, table: Table) -> DetectionResult:
        """Fit on the table and flag its outliers in one step."""
        return self.fit(table).apply(table)
