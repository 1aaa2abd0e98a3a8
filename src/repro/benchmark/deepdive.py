"""The Section VI deep dive.

Three analyses over the classified configuration impacts:

1. *Case analysis* — a case is (fairness metric, dataset+sensitive
   attribute, error type); for each case, does any cleaning technique
   avoid worsening fairness / improve fairness / improve fairness and
   accuracy simultaneously?
2. *Technique analysis* — which repair and detection techniques
   produce the most fairness gains (dummy vs mode imputation; outlier
   detector comparison)?
3. *Model analysis* (Table XIV) — per model, how often does cleaning
   worsen fairness, improve fairness, and improve both fairness and
   accuracy?
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.benchmark.impact import ConfigurationImpact
from repro.stats.impact import Impact


@dataclass(frozen=True)
class CaseSummary:
    """Outcome of the beneficial-technique search for one case."""

    metric_name: str
    dataset: str
    group_key: str
    error_type: str
    n_configurations: int
    has_non_worsening: bool
    has_fairness_improving: bool
    has_win_win: bool


@dataclass(frozen=True)
class ModelSummary:
    """One row of Table XIV."""

    model: str
    n_configurations: int
    fairness_worse: int
    fairness_better: int
    both_better: int

    @property
    def fairness_worse_fraction(self) -> float:
        """Share of configurations where cleaning worsens fairness."""
        return self.fairness_worse / self.n_configurations

    @property
    def fairness_better_fraction(self) -> float:
        """Share of configurations where cleaning improves fairness."""
        return self.fairness_better / self.n_configurations

    @property
    def both_better_fraction(self) -> float:
        """Share of configurations improving fairness and accuracy."""
        return self.both_better / self.n_configurations


class DeepDive:
    """Aggregates classified configuration impacts (Section VI)."""

    def __init__(self, impacts: list[ConfigurationImpact]) -> None:
        self.impacts = impacts

    def cases(self) -> list[CaseSummary]:
        """The case analysis over (metric, dataset+attribute, error)."""
        by_case: dict[tuple[str, str, str, str], list[ConfigurationImpact]] = {}
        for impact in self.impacts:
            key = (
                impact.metric_name,
                impact.dataset,
                impact.group_key,
                impact.error_type,
            )
            by_case.setdefault(key, []).append(impact)
        summaries = []
        for (metric_name, dataset, group_key, error_type), members in sorted(
            by_case.items()
        ):
            summaries.append(
                CaseSummary(
                    metric_name=metric_name,
                    dataset=dataset,
                    group_key=group_key,
                    error_type=error_type,
                    n_configurations=len(members),
                    has_non_worsening=any(
                        m.fairness_impact is not Impact.WORSE for m in members
                    ),
                    has_fairness_improving=any(
                        m.fairness_impact is Impact.BETTER for m in members
                    ),
                    has_win_win=any(
                        m.fairness_impact is Impact.BETTER
                        and m.accuracy_impact is Impact.BETTER
                        for m in members
                    ),
                )
            )
        return summaries

    def case_counts(self) -> dict[str, int]:
        """Aggregate counts over all cases (the 37/40-style numbers)."""
        cases = self.cases()
        return {
            "total": len(cases),
            "non_worsening": sum(case.has_non_worsening for case in cases),
            "fairness_improving": sum(case.has_fairness_improving for case in cases),
            "win_win": sum(case.has_win_win for case in cases),
        }

    def fairness_improvements_by_repair(self) -> dict[str, int]:
        """Fairness-improving configuration counts per repair method."""
        counts: dict[str, int] = {}
        for impact in self.impacts:
            if impact.fairness_impact is Impact.BETTER:
                counts[impact.repair] = counts.get(impact.repair, 0) + 1
        return dict(sorted(counts.items()))

    def detection_worsening_rates(self) -> dict[str, float]:
        """Per-detection share of configurations that worsen fairness."""
        totals: dict[str, int] = {}
        worse: dict[str, int] = {}
        for impact in self.impacts:
            totals[impact.detection] = totals.get(impact.detection, 0) + 1
            if impact.fairness_impact is Impact.WORSE:
                worse[impact.detection] = worse.get(impact.detection, 0) + 1
        return {
            name: worse.get(name, 0) / total
            for name, total in sorted(totals.items())
        }

    def dummy_vs_mode_imputation(self) -> dict[str, int]:
        """Fairness improvements for dummy vs non-dummy categorical imputation."""
        improvements = self.fairness_improvements_by_repair()
        dummy = sum(
            count
            for name, count in improvements.items()
            if name.endswith("_dummy")
        )
        other = sum(
            count
            for name, count in improvements.items()
            if name.startswith("impute_") and not name.endswith("_dummy")
        )
        return {"dummy": dummy, "other": other}

    def accuracy_leaderboard(self) -> dict[tuple[str, str], str]:
        """Best-accuracy model per (dataset, error type).

        Supports the paper's §VI observation that logistic regression
        provides the highest accuracy on most tasks, with xgboost ahead
        on a few dataset/error combinations.
        """
        best: dict[tuple[str, str], tuple[str, float]] = {}
        for impact in self.impacts:
            key = (impact.dataset, impact.error_type)
            candidate = (impact.model, impact.mean_clean_accuracy)
            if key not in best or candidate[1] > best[key][1]:
                best[key] = candidate
        return {key: model for key, (model, __) in sorted(best.items())}

    def model_summaries(self) -> list[ModelSummary]:
        """Table XIV: per-model impact summary."""
        by_model: dict[str, list[ConfigurationImpact]] = {}
        for impact in self.impacts:
            by_model.setdefault(impact.model, []).append(impact)
        summaries = []
        for model, members in sorted(by_model.items()):
            summaries.append(
                ModelSummary(
                    model=model,
                    n_configurations=len(members),
                    fairness_worse=sum(
                        m.fairness_impact is Impact.WORSE for m in members
                    ),
                    fairness_better=sum(
                        m.fairness_impact is Impact.BETTER for m in members
                    ),
                    both_better=sum(
                        m.fairness_impact is Impact.BETTER
                        and m.accuracy_impact is Impact.BETTER
                        for m in members
                    ),
                )
            )
        return summaries
