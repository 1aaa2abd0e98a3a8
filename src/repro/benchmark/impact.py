"""Impact analysis: from run records to the paper's 3x3 matrices.

A *configuration* is a (dataset, sensitive-group definition, fairness
metric, model, error type, detection, repair) tuple. For each
configuration we collect the paired score vectors of the dirty
baseline and the cleaned variant over all runs, classify the impact on
accuracy and on fairness with paired t-tests (Bonferroni-adjusted),
and aggregate configurations into the fairness-impact × accuracy-impact
contingency matrices of Tables II–XIII.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from repro.benchmark.results import ResultStore, RunRecord
from repro.fairness.confusion import (
    confusion_from_store_keys,
    group_key_fragments,
    group_keys_in_metrics,
)
from repro.fairness.metrics import ALL_FAIRNESS_METRICS, FairnessMetric
from repro.ml.metrics import ConfusionMatrix
from repro.stats.impact import Impact, classify_impact

#: Number of simultaneous (detection, repair) hypotheses per error type,
#: used as the Bonferroni divisor (CleanML's multiple-testing protocol).
HYPOTHESES_PER_ERROR_TYPE = {
    "missing_values": 6,
    "outliers": 9,
    "mislabels": 1,
}


def _group_confusions(
    record: RunRecord, technique: str, group_key: str
) -> tuple[ConfusionMatrix | None, ConfusionMatrix | None]:
    """A record's (privileged, disadvantaged) counts for one group."""
    return tuple(
        confusion_from_store_keys(record.metrics, technique, fragment)
        for fragment in group_key_fragments(group_key)
    )


def _metric_value(
    privileged: ConfusionMatrix | None,
    disadvantaged: ConfusionMatrix | None,
    metric: FairnessMetric,
) -> float:
    if privileged is None or disadvantaged is None:
        return float("nan")
    return metric(privileged, disadvantaged)


def fairness_value(
    record: RunRecord, technique: str, group_key: str, metric: FairnessMetric
) -> float:
    """Evaluate a fairness metric from a record's stored counts."""
    return _metric_value(*_group_confusions(record, technique, group_key), metric)


def _mean_magnitude(values: np.ndarray) -> float:
    """Mean |value| over the defined entries (NaN when none is)."""
    if np.isnan(values).all():
        return float("nan")
    return float(np.nanmean(np.abs(values)))


@dataclass(frozen=True)
class ConfigurationImpact:
    """Classified impact of one configuration.

    Attributes:
        dataset, group_key, metric_name, model, error_type, detection,
            repair: The configuration coordinates.
        fairness_impact: Impact of cleaning on the fairness metric.
        accuracy_impact: Impact of cleaning on test accuracy.
        n_runs: Number of paired runs behind the classification.
        mean_dirty_fairness / mean_clean_fairness: Mean |disparity|.
        mean_dirty_accuracy / mean_clean_accuracy: Mean accuracies.
        fairness_p_value / accuracy_p_value: Two-sided paired-t
            p-values behind the two verdicts (before the Bonferroni
            division, which moves the bar, not the test).
    """

    dataset: str
    group_key: str
    metric_name: str
    model: str
    error_type: str
    detection: str
    repair: str
    fairness_impact: Impact
    accuracy_impact: Impact
    n_runs: int
    mean_dirty_fairness: float
    mean_clean_fairness: float
    mean_dirty_accuracy: float
    mean_clean_accuracy: float
    fairness_p_value: float
    accuracy_p_value: float

    @property
    def intersectional(self) -> bool:
        """Whether the group definition is intersectional."""
        return "_x_" in self.group_key


@dataclass
class ImpactMatrix:
    """A 3x3 fairness-impact × accuracy-impact contingency matrix."""

    counts: dict[tuple[Impact, Impact], int] = field(
        default_factory=lambda: {(f, a): 0 for f in Impact for a in Impact}
    )

    def add(self, fairness: Impact, accuracy: Impact) -> None:
        """Count one configuration."""
        self.counts[(fairness, accuracy)] += 1

    @property
    def total(self) -> int:
        """Total configurations counted."""
        return sum(self.counts.values())

    def count(self, fairness: Impact, accuracy: Impact) -> int:
        """Count in one cell."""
        return self.counts[(fairness, accuracy)]

    def fairness_marginal(self, fairness: Impact) -> int:
        """Row total for a fairness impact."""
        return sum(self.counts[(fairness, a)] for a in Impact)

    def accuracy_marginal(self, accuracy: Impact) -> int:
        """Column total for an accuracy impact."""
        return sum(self.counts[(f, accuracy)] for f in Impact)

    def fraction(self, fairness: Impact, accuracy: Impact) -> float:
        """Cell share of the total (NaN when empty)."""
        if self.total == 0:
            return float("nan")
        return self.counts[(fairness, accuracy)] / self.total


class ImpactAnalysis:
    """Classifies configurations and aggregates them into matrices.

    One pass over the store serves every query. On first use, one
    :meth:`~repro.benchmark.ResultStore.iter_records` pass groups the
    records by (dataset, error type, detection, repair, model) in
    first-seen order and pairs each configuration's runs in
    (repetition, tuning seed) order. Each configuration is classified
    once per fairness metric, for all of its single-attribute and
    intersectional group keys, and the impacts are kept for the
    analysis's lifetime; :meth:`configuration_impacts` and
    :meth:`matrix` filter them. An analysis therefore reflects its
    store as of its first query: records added later are not seen, so
    build a new analysis to read them.
    """

    def __init__(self, store: ResultStore, alpha: float = 0.05) -> None:
        self.store = store
        self.alpha = alpha
        self._runs: list[list[RunRecord]] | None = None
        self._impacts: dict[str, list[ConfigurationImpact]] = {}

    @property
    def n_records(self) -> int:
        """Records the analysis read from its store."""
        return sum(len(records) for records in self._paired_runs())

    def impacts(self, metric_name: str) -> list[ConfigurationImpact]:
        """Every configuration × group key classified for one metric.

        In first-seen configuration order, then group-key order.
        """
        if metric_name not in self._impacts:
            self._impacts[metric_name] = [
                impact
                for records in self._paired_runs()
                for impact in self.classify(
                    records,
                    group_keys_in_metrics(records[0].metrics, records[0].repair),
                    (metric_name,),
                )
            ]
        return self._impacts[metric_name]

    def configuration_impacts(
        self,
        error_type: str,
        metric_name: str,
        intersectional: bool,
        datasets: tuple[str, ...] | None = None,
        models: tuple[str, ...] | None = None,
    ) -> list[ConfigurationImpact]:
        """Classify every configuration for one error type and metric.

        Args:
            error_type: The error type to analyse.
            metric_name: Key into the fairness-metric registry
                (the paper's tables use ``PP`` and ``EO``).
            intersectional: Use intersectional group definitions
                instead of single-attribute ones.
            datasets / models: Optional filters.
        """
        return [
            impact
            for impact in self.impacts(metric_name)
            if impact.error_type == error_type
            and impact.intersectional == intersectional
            and (datasets is None or impact.dataset in datasets)
            and (models is None or impact.model in models)
        ]

    def matrix(
        self,
        error_type: str,
        metric_name: str,
        intersectional: bool,
        datasets: tuple[str, ...] | None = None,
        models: tuple[str, ...] | None = None,
    ) -> ImpactMatrix:
        """The 3x3 contingency matrix over all configurations."""
        matrix = ImpactMatrix()
        for impact in self.configuration_impacts(
            error_type, metric_name, intersectional, datasets, models
        ):
            matrix.add(impact.fairness_impact, impact.accuracy_impact)
        return matrix

    def classify(
        self,
        records: list[RunRecord],
        group_keys: list[str],
        metric_names: tuple[str, ...],
    ) -> list[ConfigurationImpact]:
        """Classify one configuration for every group key × metric.

        ``records`` are all runs of one (dataset, error type,
        detection, repair, model) configuration, in pairing order.
        Each record's group counts are read once per group key for all
        metrics, and the accuracy test runs once for the configuration.
        Returns impacts in (group key, metric) order.
        """
        if not group_keys:
            return []
        first = records[0]
        repair = first.repair
        n_hypotheses = HYPOTHESES_PER_ERROR_TYPE.get(first.error_type, 1)
        dirty_accuracy = np.array(
            [float(r.metrics["dirty_test_acc"]) for r in records]
        )
        clean_accuracy = np.array(
            [float(r.metrics[f"{repair}_test_acc"]) for r in records]
        )
        accuracy = classify_impact(
            dirty_accuracy,
            clean_accuracy,
            higher_is_better=True,
            alpha=self.alpha,
            n_hypotheses=n_hypotheses,
        )
        impacts = []
        for group_key in group_keys:
            dirty_pairs = [_group_confusions(r, "dirty", group_key) for r in records]
            clean_pairs = [_group_confusions(r, repair, group_key) for r in records]
            for metric_name in metric_names:
                metric = ALL_FAIRNESS_METRICS[metric_name]
                dirty_fairness = np.array(
                    [_metric_value(*pair, metric) for pair in dirty_pairs]
                )
                clean_fairness = np.array(
                    [_metric_value(*pair, metric) for pair in clean_pairs]
                )
                fairness = classify_impact(
                    dirty_fairness,
                    clean_fairness,
                    higher_is_better=False,
                    use_magnitude=True,
                    alpha=self.alpha,
                    n_hypotheses=n_hypotheses,
                )
                impacts.append(
                    ConfigurationImpact(
                        dataset=first.dataset,
                        group_key=group_key,
                        metric_name=metric_name,
                        model=first.model,
                        error_type=first.error_type,
                        detection=first.detection,
                        repair=repair,
                        fairness_impact=fairness.impact,
                        accuracy_impact=accuracy.impact,
                        n_runs=len(records),
                        mean_dirty_fairness=_mean_magnitude(dirty_fairness),
                        mean_clean_fairness=_mean_magnitude(clean_fairness),
                        mean_dirty_accuracy=float(np.mean(dirty_accuracy)),
                        mean_clean_accuracy=float(np.mean(clean_accuracy)),
                        fairness_p_value=fairness.p_value,
                        accuracy_p_value=accuracy.p_value,
                    )
                )
        return impacts

    def _paired_runs(self) -> list[list[RunRecord]]:
        """Each configuration's records, read in one store pass."""
        if self._runs is None:
            configurations: dict[tuple[str, ...], list[RunRecord]] = {}
            for record in self.store.iter_records():
                key = (
                    record.dataset,
                    record.error_type,
                    record.detection,
                    record.repair,
                    record.model,
                )
                configurations.setdefault(key, []).append(record)
            self._runs = [
                sorted(records, key=attrgetter("repetition", "tuning_seed"))
                for records in configurations.values()
            ]
        return self._runs
