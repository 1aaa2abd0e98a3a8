"""Seeded fairness-regression injection for the audit gate's tests.

:func:`inject_fairness_regression` copies a result store, rewriting
the repaired disadvantaged-group confusion counts of the targeted
configurations so the demographic-parity gap provably widens. The CI
fairness gate replays ``obs-audit --fail-on-fairness-regression``
against the sabotaged copy and must see exit code 3 — a live
end-to-end proof that the gate actually fires. The gate compares
paired-t verdicts, so the sabotaged store needs at least 2 paired runs
per configuration for any verdict to move.

The sabotage is direction-aware: whichever side of the selection-rate
gap the disadvantaged group sits on, every predicted label on the
near side is flipped to push it further from the privileged group's
rate, so ``|DP|`` grows regardless of which group the repair
originally favoured. Counts move between prediction outcomes only
(tp→fn, fp→tn or tn→fp, fn→tp), so group sizes and true labels stay
intact.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

from repro.benchmark import ResultStore
from repro.fairness.confusion import (
    confusion_from_store_keys,
    group_key_fragments,
    group_keys_in_metrics,
)


def _sabotage(metrics: dict, technique: str) -> bool:
    """Widen the repaired DP gap of every group in one record's metrics.

    Returns True when at least one group's counts changed.
    """
    changed = False
    for group_key in group_keys_in_metrics(metrics, technique):
        priv_fragment, dis_fragment = group_key_fragments(group_key)
        priv = confusion_from_store_keys(metrics, technique, priv_fragment)
        dis = confusion_from_store_keys(metrics, technique, dis_fragment)
        if priv is None or dis is None:
            continue
        total = dis.tn + dis.fp + dis.fn + dis.tp
        if total == 0:
            continue
        dis_rate = (dis.tp + dis.fp) / total
        priv_total = priv.tn + priv.fp + priv.fn + priv.tp
        priv_rate = (priv.tp + priv.fp) / priv_total if priv_total else 0.0
        if dis_rate <= priv_rate:
            # disadvantaged group already selected less often: flip
            # every positive to a negative to push its rate further down
            cells = {"tn": dis.tn + dis.fp, "fp": 0, "fn": dis.fn + dis.tp, "tp": 0}
            moved = dis.tp + dis.fp
        else:
            # selected more often: flip every negative to a positive
            cells = {"tn": 0, "fp": dis.fp + dis.tn, "fn": 0, "tp": dis.tp + dis.fn}
            moved = dis.tn + dis.fn
        if moved == 0:
            continue
        for cell, count in cells.items():
            metrics[f"{technique}__{dis_fragment}__{cell}"] = count
        changed = True
    return changed


def inject_fairness_regression(
    store_path: str | Path,
    output_path: str | Path,
    *,
    error_type: str = "mislabels",
    repair: str | None = None,
) -> int:
    """Copy a store with a provable fairness regression injected.

    Rewrites the repaired disadvantaged-group counts of every record
    matching ``error_type`` (and ``repair``, when given) so the
    demographic-parity gap widens; all other records copy through
    byte-for-byte. Writes the sabotaged store to ``output_path`` and
    returns the number of records changed; raises :class:`ValueError`
    when nothing matched (a gate test asserting on an un-sabotaged
    copy would silently pass).
    """
    source = ResultStore(store_path)
    output = ResultStore(output_path)
    sabotaged = 0
    for record in source.iter_records():
        metrics = dict(record.metrics)
        if record.error_type == error_type and (
            repair is None or record.repair == repair
        ):
            if _sabotage(metrics, record.repair):
                sabotaged += 1
        output.add(replace(record, metrics=metrics))
    if sabotaged == 0:
        raise ValueError(
            f"no records matched error_type={error_type!r} repair={repair!r} "
            f"in {store_path}; nothing to sabotage"
        )
    output.save()
    return sabotaged
