"""Declarative fairness alert rules.

A rule is a small frozen dataclass — "the repair must not widen the
demographic-parity gap beyond ε", "no group's equalized-odds gap may
exceed ε", "the repair must not cost more than ε accuracy" — with
optional scope filters over the study coordinates. Rules are evaluated
in one place: :func:`repro.obs.audit.evaluate_rules`, against the
per-configuration gaps of a :class:`repro.obs.audit.FairnessAudit`
built from the store's records. ``obs-audit`` runs it on a finished
run and, because the store replays journal shards, on an in-flight
one too.

Everything here is stdlib-only and operates on plain gap mappings
(group → metric → ``(dirty, repaired)``), so the rule layer never
imports the study pipeline.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

#: Rule kinds understood by :func:`evaluate_gaps`.
RULE_KINDS = ("no_widening", "max_gap", "accuracy_floor")

#: Scope-filter fields a rule may pin (None = match any value).
SCOPE_FIELDS = ("dataset", "error_type", "detection", "repair", "model", "group")


@dataclass(frozen=True)
class AlertRule:
    """One declarative fairness constraint.

    Attributes:
        name: Identifier shown in alerts and reports.
        kind: ``no_widening`` (the repaired |gap| must not exceed the
            dirty |gap| by more than ``epsilon``), ``max_gap`` (the
            repaired |gap| must not exceed ``epsilon``), or
            ``accuracy_floor`` (repaired accuracy must not fall more
            than ``epsilon`` below the dirty accuracy).
        metric: Fairness-metric abbreviation the rule watches
            (``DP`` / ``EO`` / ``EOdds`` / ``PP``; ignored for
            ``accuracy_floor``).
        epsilon: The rule's tolerance.
        dataset / error_type / detection / repair / model / group:
            Optional scope filters; a None filter matches anything.
    """

    name: str
    kind: str = "no_widening"
    metric: str = "DP"
    epsilon: float = 0.10
    dataset: str | None = None
    error_type: str | None = None
    detection: str | None = None
    repair: str | None = None
    model: str | None = None
    group: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in RULE_KINDS:
            raise ValueError(
                f"unknown rule kind {self.kind!r}; expected one of {RULE_KINDS}"
            )
        if self.epsilon < 0:
            raise ValueError(f"epsilon must be >= 0, got {self.epsilon}")

    def matches(self, **coords: str | None) -> bool:
        """Whether the rule's scope filters accept these coordinates."""
        for field in SCOPE_FIELDS:
            want = getattr(self, field)
            if want is not None and field in coords and coords[field] != want:
                return False
        return True

    def to_json(self) -> dict[str, Any]:
        """Serialisable representation (None filters omitted)."""
        payload = asdict(self)
        return {
            key: value
            for key, value in payload.items()
            if value is not None
        }


@dataclass(frozen=True)
class Alert:
    """One fired rule violation.

    Attributes:
        rule: Name of the rule that fired.
        coordinate: ``dataset/error_type/detection/repair/model[/group]``
            the violation was observed at (plus ``/metric`` for gap
            rules).
        observed: The offending value (widening, gap, or accuracy
            drop).
        limit: The rule's epsilon.
        message: Human-readable one-liner.
    """

    rule: str
    coordinate: str
    observed: float
    limit: float
    message: str

    def to_json(self) -> dict[str, Any]:
        """Serialisable representation."""
        return {
            "rule": self.rule,
            "coordinate": self.coordinate,
            "observed": self.observed,
            "limit": self.limit,
            "message": self.message,
        }


#: Conservative default rules: flag repairs that widen the headline
#: parity gaps by more than 10 points or cost more than 5 points of
#: accuracy. Alerts are informational — only ``obs-audit
#: --fail-on-fairness-regression`` turns fairness telemetry into an
#: exit code.
DEFAULT_RULES: tuple[AlertRule, ...] = (
    AlertRule(name="dp-not-widened", kind="no_widening", metric="DP", epsilon=0.10),
    AlertRule(
        name="eodds-not-widened", kind="no_widening", metric="EOdds", epsilon=0.10
    ),
    AlertRule(name="accuracy-not-collapsed", kind="accuracy_floor", epsilon=0.05),
)


def evaluate_gaps(
    rules: Sequence[AlertRule],
    *,
    dataset: str,
    error_type: str,
    detection: str,
    repair: str,
    model: str,
    gaps: Mapping[str, Mapping[str, Sequence[float | None]]],
    dirty_acc: float | None = None,
    repaired_acc: float | None = None,
) -> list[Alert]:
    """Evaluate rules against one configuration's gaps.

    ``gaps`` maps group key → metric abbreviation → ``(dirty,
    repaired)`` absolute-disparity pair; None values (a metric
    undefined on a tiny group) never fire a rule. Returns the fired
    alerts in deterministic (rule, coordinate) order.
    """
    coordinate = f"{dataset}/{error_type}/{detection}/{repair}/{model}"
    coords = {
        "dataset": dataset,
        "error_type": error_type,
        "detection": detection,
        "repair": repair,
        "model": model,
    }
    alerts: list[Alert] = []
    for rule in rules:
        if rule.kind == "accuracy_floor":
            if not rule.matches(**coords):
                continue
            if dirty_acc is None or repaired_acc is None:
                continue
            drop = dirty_acc - repaired_acc
            if drop > rule.epsilon:
                alerts.append(
                    Alert(
                        rule=rule.name,
                        coordinate=coordinate,
                        observed=drop,
                        limit=rule.epsilon,
                        message=(
                            f"repair cost {drop:.3f} accuracy at {coordinate} "
                            f"(limit {rule.epsilon:.3f})"
                        ),
                    )
                )
            continue
        for group in sorted(gaps):
            if not rule.matches(group=group, **coords):
                continue
            pair = gaps[group].get(rule.metric)
            if pair is None:
                continue
            dirty, repaired = pair[0], pair[1]
            if repaired is None:
                continue
            where = f"{coordinate}/{group}/{rule.metric}"
            if rule.kind == "max_gap":
                observed = abs(repaired)
                if observed > rule.epsilon:
                    alerts.append(
                        Alert(
                            rule=rule.name,
                            coordinate=where,
                            observed=observed,
                            limit=rule.epsilon,
                            message=(
                                f"{rule.metric} gap {observed:.3f} exceeds "
                                f"{rule.epsilon:.3f} at {where}"
                            ),
                        )
                    )
            else:  # no_widening
                if dirty is None:
                    continue
                widening = abs(repaired) - abs(dirty)
                if widening > rule.epsilon:
                    alerts.append(
                        Alert(
                            rule=rule.name,
                            coordinate=where,
                            observed=widening,
                            limit=rule.epsilon,
                            message=(
                                f"repair widened the {rule.metric} gap by "
                                f"{widening:.3f} at {where} "
                                f"(limit {rule.epsilon:.3f})"
                            ),
                        )
                    )
    alerts.sort(key=lambda alert: (alert.rule, alert.coordinate))
    return alerts


def dedupe_alerts(alerts: Iterable[Alert]) -> list[Alert]:
    """Keep the worst alert per (rule, coordinate), sorted."""
    worst: dict[tuple[str, str], Alert] = {}
    for alert in alerts:
        key = (alert.rule, alert.coordinate)
        kept = worst.get(key)
        if kept is None or alert.observed > kept.observed:
            worst[key] = alert
    return [worst[key] for key in sorted(worst)]


def load_rules(path: str | Path) -> tuple[AlertRule, ...]:
    """Load a JSON rule file: a list of :class:`AlertRule` dicts."""
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, list):
        raise ValueError(f"rule file {path} must hold a JSON list of rules")
    rules = []
    for index, entry in enumerate(payload):
        if not isinstance(entry, dict) or "name" not in entry:
            raise ValueError(f"rule #{index} in {path} must be a dict with a name")
        unknown = set(entry) - {"name", "kind", "metric", "epsilon", *SCOPE_FIELDS}
        if unknown:
            raise ValueError(f"rule #{index} in {path}: unknown fields {sorted(unknown)}")
        rules.append(AlertRule(**entry))
    return tuple(rules)
