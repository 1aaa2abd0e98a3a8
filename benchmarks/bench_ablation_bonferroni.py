"""Ablation: impact classification with vs without Bonferroni correction.

The paper follows CleanML in adjusting the t-test threshold for
multiple hypotheses. This ablation re-classifies every missing-value
configuration without the correction to show how many "significant"
impacts the adjustment suppresses.
"""

from conftest import save_artifact

from repro import ImpactAnalysis
from repro.benchmark import impact as impact_module
from repro.stats.impact import Impact


def build_report(store) -> str:
    def classify(n_hypotheses_override):
        original = dict(impact_module.HYPOTHESES_PER_ERROR_TYPE)
        impact_module.HYPOTHESES_PER_ERROR_TYPE = {
            key: n_hypotheses_override or value for key, value in original.items()
        }
        try:
            # a fresh analysis: an analysis keeps its first classification
            return ImpactAnalysis(store).configuration_impacts(
                "missing_values", "PP", intersectional=False
            )
        finally:
            impact_module.HYPOTHESES_PER_ERROR_TYPE = original

    adjusted = classify(None)
    unadjusted = classify(1)

    def significant(impacts):
        return sum(
            1
            for impact in impacts
            if impact.fairness_impact is not Impact.INSIGNIFICANT
            or impact.accuracy_impact is not Impact.INSIGNIFICANT
        )

    lines = [
        "ABLATION: BONFERRONI CORRECTION (missing values, PP, single-attribute)",
        f"  configurations:                        {len(adjusted)}",
        f"  significant with correction (alpha/6): {significant(adjusted)}",
        f"  significant without correction:        {significant(unadjusted)}",
        "  (the correction suppresses borderline effects, trading recall of",
        "   true impacts for protection against false discoveries)",
    ]
    return "\n".join(lines)


def test_ablation_bonferroni(benchmark, study_store):
    text = benchmark.pedantic(build_report, args=(study_store,), rounds=1, iterations=1)
    save_artifact("ablation_bonferroni.txt", text)
    assert "BONFERRONI" in text
