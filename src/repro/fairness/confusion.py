"""Group-wise confusion matrices with CleanML-style key naming.

The benchmark records, per cleaning technique, the raw confusion
matrix counts for the privileged and disadvantaged groups. Keys follow
the paper's convention, e.g.::

    impute_mean_dummy__sex_priv__tp
    impute_mean_dummy__sex_priv__age_priv__fp   (intersectional)

Computing raw counts (rather than final metrics) keeps the result
store metric-agnostic, as the paper's Section IV motivates.

The counting itself is vectorised: labels and predictions are combined
into a single ``2 * y_true + y_pred`` code vector whose values map to
(tn, fp, fn, tp) = (0, 1, 2, 3), so each group's four counts come from
one ``np.bincount`` over a boolean mask instead of per-group Python
loops — this runs inside the study's parallel hot path once per model
prediction and group definition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.fairness.groups import GroupSpec, IntersectionalSpec
from repro.ml.metrics import ConfusionMatrix, _validate
from repro.tabular import Table

#: Masks for one group pair: (key, privileged mask, disadvantaged mask).
GroupMasks = tuple[str, np.ndarray, np.ndarray]


@dataclass(frozen=True)
class GroupConfusion:
    """Confusion matrices for a privileged/disadvantaged group pair."""

    group_key: str
    privileged: ConfusionMatrix
    disadvantaged: ConfusionMatrix

    def metric_value(self, metric) -> float:
        """Evaluate a fairness metric callable on this pair."""
        return metric(self.privileged, self.disadvantaged)


def confusion_codes(y_true: np.ndarray, y_pred: np.ndarray) -> np.ndarray:
    """Combine 0/1 labels and predictions into (tn, fp, fn, tp) codes.

    The returned vector holds ``2 * y_true + y_pred`` so that value
    ``0`` is a true negative, ``1`` a false positive, ``2`` a false
    negative and ``3`` a true positive. Validates that both arrays are
    0/1 and share a shape.
    """
    y_true, y_pred = _validate(y_true, y_pred)
    return 2 * y_true + y_pred


def _confusion_from_codes(codes: np.ndarray, mask: np.ndarray) -> ConfusionMatrix:
    counts = np.bincount(codes[mask], minlength=4)
    return ConfusionMatrix(
        tn=int(counts[0]), fp=int(counts[1]), fn=int(counts[2]), tp=int(counts[3])
    )


def group_masks(
    table: Table, specs: Sequence[GroupSpec | IntersectionalSpec]
) -> list[GroupMasks]:
    """Precompute the (privileged, disadvantaged) masks for each spec.

    The masks depend only on the table, so callers scoring many models
    on the same test set compute them once and reuse them with
    :func:`group_confusions_from_masks` for every prediction vector.
    """
    return [
        (spec.key, spec.privileged_mask(table), spec.disadvantaged_mask(table))
        for spec in specs
    ]


def group_confusions_from_masks(
    y_true: np.ndarray,
    y_pred: np.ndarray,
    masks: Sequence[GroupMasks],
) -> list[GroupConfusion]:
    """Confusion-matrix pairs for precomputed group masks.

    Validates and encodes the label arrays once, then derives each
    group's counts with a single masked ``np.bincount``.
    """
    codes = confusion_codes(y_true, y_pred)
    return [
        GroupConfusion(
            group_key=key,
            privileged=_confusion_from_codes(codes, privileged),
            disadvantaged=_confusion_from_codes(codes, disadvantaged),
        )
        for key, privileged, disadvantaged in masks
    ]


def group_confusion_matrices(
    table: Table,
    y_true: np.ndarray,
    y_pred: np.ndarray,
    spec: GroupSpec | IntersectionalSpec,
) -> GroupConfusion:
    """Confusion matrices restricted to the spec's two groups."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if len(y_true) != table.n_rows or len(y_pred) != table.n_rows:
        raise ValueError(
            f"label arrays must have {table.n_rows} entries, "
            f"got {len(y_true)} / {len(y_pred)}"
        )
    (confusion,) = group_confusions_from_masks(
        y_true, y_pred, group_masks(table, [spec])
    )
    return confusion


def group_key_fragments(group_key: str) -> tuple[str, str]:
    """(privileged, disadvantaged) store-key fragments for a group key.

    ``sex`` → ``("sex_priv", "sex_dis")``; the intersectional
    ``sex_x_age`` → ``("sex_priv__age_priv", "sex_dis__age_dis")``.
    """
    if "_x_" in group_key:
        first, second = group_key.split("_x_", 1)
        return f"{first}_priv__{second}_priv", f"{first}_dis__{second}_dis"
    return f"{group_key}_priv", f"{group_key}_dis"


def confusion_from_store_keys(
    metrics: dict, technique: str, fragment: str
) -> ConfusionMatrix | None:
    """Rebuild one group's confusion matrix from stored metric keys.

    Returns None when any of the four ``{technique}__{fragment}__*``
    count keys is absent (e.g. asking a dirty-only record about a
    repair it never ran).
    """
    cells = {}
    for cell in ("tn", "fp", "fn", "tp"):
        key = f"{technique}__{fragment}__{cell}"
        if key not in metrics:
            return None
        cells[cell] = int(metrics[key])
    return ConfusionMatrix(**cells)


def group_keys_in_metrics(metrics: dict, technique: str) -> list[str]:
    """Recover the group keys a record stored counts for, sorted.

    The inverse of :func:`result_store_keys`'s naming: scans for
    ``{technique}__{fragment}__tp`` keys and maps fragments back to
    group keys (``sex_priv`` → ``sex``, ``sex_priv__age_priv`` →
    ``sex_x_age``).
    """
    keys: set[str] = set()
    prefix = f"{technique}__"
    suffix = "__tp"
    for metric_key in metrics:
        if not metric_key.startswith(prefix) or not metric_key.endswith(suffix):
            continue
        fragment = metric_key[len(prefix) : -len(suffix)]
        parts = fragment.split("__")
        if all(part.endswith("_priv") for part in parts):
            if len(parts) == 1:
                keys.add(parts[0][: -len("_priv")])
            elif len(parts) == 2:
                keys.add("_x_".join(part[: -len("_priv")] for part in parts))
    return sorted(keys)


def result_store_keys(
    technique: str, group: GroupConfusion
) -> dict[str, int]:
    """Flatten a group confusion pair into CleanML-style result keys.

    For a single-attribute spec with key ``sex``::

        {technique}__sex_priv__tn ... {technique}__sex_dis__tp

    For an intersectional spec with key ``sex_x_age`` the fragments
    become ``sex_priv__age_priv`` and ``sex_dis__age_dis``.
    """
    priv_fragment, dis_fragment = group_key_fragments(group.group_key)
    keys: dict[str, int] = {}
    for fragment, matrix in (
        (priv_fragment, group.privileged),
        (dis_fragment, group.disadvantaged),
    ):
        for cell, count in matrix.as_dict().items():
            keys[f"{technique}__{fragment}__{cell}"] = count
    return keys
