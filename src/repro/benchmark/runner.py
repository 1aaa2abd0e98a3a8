"""The Fig-3 evaluation loop.

For each experimental configuration (dataset / model / error type /
detection / repair) the runner:

1. samples records and splits them into train/test sets,
2. keeps the raw data as the *dirty* version and applies the repair
   strategy to produce a *repaired* version,
3. trains one tuned classifier per version,
4. predicts with the dirty model on the dirty test set and with the
   repaired model on the equivalently repaired test set,
5. scores both models on accuracy and records group-wise confusion
   matrices for every (single-attribute and intersectional) group
   definition under the CleanML key-naming scheme.

Error-type specifics follow the paper's Section V exactly:

- *missing_values* — the dirty baseline drops incomplete tuples from
  the train set but imputes (mean/dummy) on the test set, since
  tuples cannot be dropped at prediction time in production.
- *outliers* — incomplete tuples are removed beforehand; the dirty
  version retains outliers in train and test; detectors are fitted on
  the train set and applied to both.
- *mislabels* — incomplete tuples are removed beforehand; repair flips
  the flagged labels in the train set only (test labels are never
  flipped, to keep predictions comparable).

Execution is structured around *repetition cells*: version preparation
(splitting, detection, repair) plus featurisation and group masks are
computed once per ``(dataset, error_type, repetition)`` and shared by
every ``model × tuning_seed`` cell inside that repetition. Every
random draw is seeded by :func:`_seed_for` hashes of configuration
coordinates — never by execution order — so any subset of cells, run
in any order (including in parallel worker processes, see
:mod:`repro.benchmark.parallel`), produces identical records.
"""

from __future__ import annotations

import zlib
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.benchmark.config import StudyConfig
from repro.benchmark.models import model_search
from repro.benchmark.results import ResultStore, RunRecord
from repro.cleaning.mislabels import ConfidentLearningDetector
from repro.cleaning.repair import (
    CategoricalImputation,
    LabelFlipRepair,
    MissingValueRepair,
    NumericImputation,
)
from repro.cleaning.strategies import (
    missing_value_repairs,
    outlier_detectors,
    outlier_repairs,
)
from repro.datasets import DatasetDefinition
from repro.fairness.confusion import (
    GroupMasks,
    group_confusions_from_masks,
    group_masks,
    result_store_keys,
)
from repro.ml import TabularFeaturizer, incremental
from repro.ml.metrics import accuracy_score, f1_score
from repro.tabular import Table, train_test_split_table

ERROR_TYPES = ("missing_values", "outliers", "mislabels")

#: One schedulable cell inside a repetition: (model name, tuning seed).
Cell = tuple[str, int]


def _seed_for(*parts: object) -> int:
    """Deterministic 32-bit seed from heterogeneous parts."""
    text = "|".join(str(part) for part in parts)
    return zlib.crc32(text.encode("utf-8"))


@dataclass
class _Version:
    """A (train, test) pair with labels, ready for model training.

    ``features`` and ``masks`` cache the fitted featurisation and the
    group masks of the test table. Both depend only on the version's
    tables, so they are computed once and shared by every
    model × tuning-seed cell of the repetition (previously the dirty
    version alone was re-featurised ``len(models) × n_tuning_seeds``
    times per repetition).

    ``artifacts`` keeps the featurisation's block structure (the same
    matrices as ``features`` plus the fitted encoder/scaler and the
    numeric/one-hot column split) so a child version can patch it;
    ``delta`` is the row-delta manifest against the selected parent
    version, linked by :meth:`ExperimentRunner._link_deltas` when
    :attr:`StudyConfig.incremental` is on.
    """

    name: str
    detection: str
    train: Table
    train_labels: np.ndarray
    test: Table
    test_labels: np.ndarray
    features: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, repr=False, compare=False
    )
    masks: list[GroupMasks] | None = field(default=None, repr=False, compare=False)
    artifacts: "incremental.FeatureArtifacts | None" = field(
        default=None, repr=False, compare=False
    )
    delta: "incremental.VersionDelta | None" = field(
        default=None, repr=False, compare=False
    )


class ExperimentRunner:
    """Evaluates the cells of one repetition into a result store.

    This is the per-unit cell evaluator:
    :func:`repro.benchmark.parallel.run_parallel_study` plans a study's
    pending cells and drives every work unit through
    :meth:`run_repetition_cells`.
    """

    def __init__(self, config: StudyConfig, store: ResultStore) -> None:
        self.config = config
        self.store = store

    # -- public API ------------------------------------------------------

    def run_repetition_cells(
        self,
        definition: DatasetDefinition,
        table: Table,
        error_type: str,
        repetition: int,
        cells: "list[Cell] | tuple[Cell, ...]",
        cell_guard=None,
    ) -> int:
        """Run selected ``(model, tuning_seed)`` cells of one repetition.

        Version preparation (and the per-version featurisation/mask
        caches) happens once and is shared by every cell, which is the
        unit of work the parallel scheduler ships to worker processes.
        ``cell_guard``, when given, is called as
        ``cell_guard(index, model_name, seed)`` and must return a
        context manager entered around that cell's evaluation — the
        hook the parallel executor uses for per-cell timeouts and the
        chaos harness for fault injection. Returns the number of new
        records added.
        """
        if error_type not in ERROR_TYPES:
            raise ValueError(
                f"unknown error type {error_type!r}; valid: {ERROR_TYPES}"
            )
        if error_type not in definition.error_types or not cells:
            return 0
        coords = dict(
            dataset=definition.name, error_type=error_type, repetition=repetition
        )
        with obs.span("unit", n_cells=len(cells), **coords):
            obs.heartbeat(phase="unit_start", n_cells=len(cells), **coords)
            with obs.span("prepare", **coords):
                versions = self._prepare_versions(
                    definition, table, error_type, repetition
                )
                if versions is not None and self.config.incremental:
                    self._link_deltas(versions[0], versions[1])
            if versions is None:
                return 0
            dirty, repaired_versions = versions
            scope = (
                incremental.ReuseScope(
                    incremental.repetition_results((definition.name, repetition))
                )
                if self.config.incremental
                else None
            )
            scope_guard = (
                incremental.reuse_scope(scope) if scope is not None else nullcontext()
            )
            added = 0
            with scope_guard:
                for index, (model_name, seed) in enumerate(cells):
                    guard = (
                        nullcontext()
                        if cell_guard is None
                        else cell_guard(index, model_name, seed)
                    )
                    obs.heartbeat(
                        phase="cell_start", model=model_name, seed=seed, **coords
                    )
                    with guard, obs.span(
                        "cell", model=model_name, seed=seed, **coords
                    ) as cell_span:
                        hits_before = scope.hits() if scope is not None else 0
                        cell_added = self._evaluate_model(
                            definition,
                            error_type,
                            dirty,
                            repaired_versions,
                            model_name,
                            repetition,
                            seed,
                        )
                        cell_span.add("records", cell_added)
                        if scope is not None and scope.hits() > hits_before:
                            cell_span.set(warm_started=True)
                            obs.counter("cells_warm_started")
                        added += cell_added
                    # after the span closed: seconds is final, and the
                    # flush makes the finished cell visible to monitors
                    obs.heartbeat(
                        phase="cell_done",
                        model=model_name,
                        seed=seed,
                        seconds=cell_span.seconds if cell_span is not obs.NOOP_SPAN else 0.0,
                        **coords,
                    )
        return added

    # -- version preparation ----------------------------------------------

    def _split(
        self, definition: DatasetDefinition, table: Table, repetition: int
    ) -> tuple[Table, np.ndarray, Table, np.ndarray]:
        rng = np.random.default_rng(
            _seed_for("split", definition.name, repetition, self.config.generation_seed)
        )
        n = min(self.config.n_sample, table.n_rows)
        sample = table.sample_rows(n, rng)
        train, test = train_test_split_table(sample, self.config.test_fraction, rng)
        train_labels = train.column(definition.label).astype(np.int64)
        test_labels = test.column(definition.label).astype(np.int64)
        return (
            train.drop_columns([definition.label]),
            train_labels,
            test.drop_columns([definition.label]),
            test_labels,
        )

    def _prepare_versions(
        self,
        definition: DatasetDefinition,
        table: Table,
        error_type: str,
        repetition: int,
    ) -> tuple[_Version, list[_Version]] | None:
        train, train_labels, test, test_labels = self._split(
            definition, table, repetition
        )
        if error_type == "missing_values":
            return self._missing_value_versions(
                train, train_labels, test, test_labels
            )
        # outliers and mislabels require complete tuples beforehand
        train_keep = ~train.missing_mask()
        test_keep = ~test.missing_mask()
        train = train.mask_rows(train_keep)
        train_labels = train_labels[train_keep]
        test = test.mask_rows(test_keep)
        test_labels = test_labels[test_keep]
        if len(np.unique(train_labels)) < 2 or train.n_rows < 30:
            return None
        if error_type == "outliers":
            return self._outlier_versions(train, train_labels, test, test_labels)
        return self._mislabel_versions(
            definition, train, train_labels, test, test_labels, repetition
        )

    def _missing_value_versions(
        self,
        train: Table,
        train_labels: np.ndarray,
        test: Table,
        test_labels: np.ndarray,
    ) -> tuple[_Version, list[_Version]] | None:
        complete = ~train.missing_mask()
        dirty_train = train.mask_rows(complete)
        dirty_train_labels = train_labels[complete]
        if len(np.unique(dirty_train_labels)) < 2 or dirty_train.n_rows < 30:
            return None
        # production cannot drop incomplete tuples at prediction time:
        # the dirty baseline imputes mean/dummy on the test set
        baseline_imputer = MissingValueRepair(
            numeric=NumericImputation.MEAN,
            categorical=CategoricalImputation.DUMMY,
        ).fit(dirty_train)
        dirty = _Version(
            name="dirty",
            detection="missing_values",
            train=dirty_train,
            train_labels=dirty_train_labels,
            test=baseline_imputer.transform(test),
            test_labels=test_labels,
        )
        repaired = []
        for name, repair in missing_value_repairs().items():
            repair.fit(train)
            repaired.append(
                _Version(
                    name=name,
                    detection="missing_values",
                    train=repair.transform(train),
                    train_labels=train_labels,
                    test=repair.transform(test),
                    test_labels=test_labels,
                )
            )
        return dirty, repaired

    def _outlier_versions(
        self,
        train: Table,
        train_labels: np.ndarray,
        test: Table,
        test_labels: np.ndarray,
    ) -> tuple[_Version, list[_Version]]:
        dirty = _Version(
            name="dirty",
            detection="none",
            train=train,
            train_labels=train_labels,
            test=test,
            test_labels=test_labels,
        )
        repaired = []
        for detector_name, detector in outlier_detectors(
            random_state=_seed_for("if", train.n_rows)
        ).items():
            detector.fit(train)
            train_detection = detector.apply(train)
            test_detection = detector.apply(test)
            for repair_name, repair in outlier_repairs().items():
                repair.fit(train, train_detection)
                repaired.append(
                    _Version(
                        name=repair_name,
                        detection=detector_name,
                        train=repair.transform(train, train_detection),
                        train_labels=train_labels,
                        test=repair.transform(test, test_detection),
                        test_labels=test_labels,
                    )
                )
        return dirty, repaired

    def _mislabel_versions(
        self,
        definition: DatasetDefinition,
        train: Table,
        train_labels: np.ndarray,
        test: Table,
        test_labels: np.ndarray,
        repetition: int,
    ) -> tuple[_Version, list[_Version]]:
        dirty = _Version(
            name="dirty",
            detection="cleanlab",
            train=train,
            train_labels=train_labels,
            test=test,
            test_labels=test_labels,
        )
        featurizer = TabularFeaturizer(
            feature_columns=definition.feature_columns(train)
        ).fit(train)
        detector = ConfidentLearningDetector(
            random_state=_seed_for("cl", definition.name, repetition)
        )
        detection = detector.detect(featurizer.transform(train), train_labels)
        flipped = LabelFlipRepair().repair(train_labels, detection.row_mask)
        repaired = _Version(
            name="flip_labels",
            detection="cleanlab",
            train=train,
            train_labels=flipped,
            test=test,
            test_labels=test_labels,
        )
        return dirty, [repaired]

    def _link_deltas(self, dirty: _Version, repaired: list[_Version]) -> None:
        """Attach a row-delta manifest to each repaired version.

        Parent candidates are the dirty version and every earlier
        repaired version of the same repetition; the parent with the
        cheapest delta (fewest changed cells, categorical train
        changes penalised) wins. Versions with no aligned candidate —
        e.g. every repair of a missing-values split, whose dirty
        baseline dropped incomplete train tuples — keep ``delta=None``
        and take the cold paths.
        """
        candidates = [dirty]
        for version in repaired:
            best: incremental.VersionDelta | None = None
            for parent in candidates:
                delta = incremental.version_delta(
                    parent.train,
                    parent.train_labels,
                    parent.test,
                    version.train,
                    version.train_labels,
                    version.test,
                    parent=parent,
                )
                if delta is None:
                    continue
                if best is None or delta.cost < best.cost:
                    best = delta
            version.delta = best
            candidates.append(version)

    # -- model evaluation ---------------------------------------------------

    def _features_for(
        self, definition: DatasetDefinition, version: _Version
    ) -> tuple[np.ndarray, np.ndarray]:
        """Fitted (X_train, X_test) matrices, cached on the version."""
        if version.features is None:
            obs.counter("cache_miss", cache="featurizer")
            with obs.span("featurize", version=version.name):
                feature_columns = definition.feature_columns(version.train)
                artifacts = None
                scope = incremental.active()
                delta = version.delta
                if (
                    scope is not None
                    and delta is not None
                    and delta.parent.artifacts is not None
                ):
                    artifacts = incremental.incremental_featurize(
                        feature_columns,
                        delta.parent.artifacts,
                        delta,
                        version.train,
                        version.test,
                    )
                    scope.record("featurize", hit=artifacts is not None)
                if artifacts is None:
                    artifacts = incremental.featurize_version(
                        feature_columns, version.train, version.test
                    )
                version.artifacts = artifacts
                version.features = (artifacts.X_train, artifacts.X_test)
        else:
            obs.counter("cache_hit", cache="featurizer")
        return version.features

    def _masks_for(
        self, definition: DatasetDefinition, version: _Version
    ) -> list[GroupMasks]:
        """Group masks of the version's test table, cached on the version."""
        if version.masks is None:
            obs.counter("cache_miss", cache="masks")
            with obs.span("masks", version=version.name):
                specs = list(definition.group_specs) + list(
                    definition.intersectional_specs
                )
                scope = incremental.active()
                delta = version.delta
                if (
                    scope is not None
                    and delta is not None
                    and delta.parent.masks is not None
                ):
                    if incremental.masks_reusable(
                        self._spec_columns(definition), delta.test
                    ):
                        # masks are a pure function of the sensitive test
                        # columns, which the manifest shows unchanged
                        scope.record("masks", hit=True)
                        version.masks = delta.parent.masks
                        return version.masks
                    scope.record("masks", hit=False)
                version.masks = group_masks(version.test, specs)
        else:
            obs.counter("cache_hit", cache="masks")
        return version.masks

    @staticmethod
    def _spec_columns(definition: DatasetDefinition) -> tuple[str, ...]:
        """Test-table columns the group specs read."""
        columns: list[str] = []
        for spec in definition.group_specs:
            columns.append(spec.privileged.attribute)
        for spec in definition.intersectional_specs:
            columns.append(spec.first.privileged.attribute)
            columns.append(spec.second.privileged.attribute)
        return tuple(dict.fromkeys(columns))

    def _score_version(
        self,
        definition: DatasetDefinition,
        version: _Version,
        model_name: str,
        tuning_seed: int,
        technique: str,
    ) -> dict[str, object]:
        X_train, X_test = self._features_for(definition, version)
        train_labels = version.train_labels
        seed = _seed_for("tune", model_name, tuning_seed)
        extra = (model_name, seed, self.config.n_cv_folds, self.config.grid_fast_path)
        scope = incremental.active()

        def tune_and_predict() -> tuple[dict, float, np.ndarray]:
            search = model_search(
                model_name,
                n_cv_folds=self.config.n_cv_folds,
                tuning_seed=seed,
                fast_path=self.config.grid_fast_path,
            )
            if scope is None:
                search.fit(X_train, train_labels)
            else:

                def tune() -> tuple[dict, float]:
                    search.fit(X_train, train_labels)
                    return dict(search.best_params_), float(search.best_score_)

                # the search is deterministic in its seed and its training
                # bytes: a training set that another version, or a sibling
                # unit of the repetition, already tuned refits only the
                # best candidate
                best = scope.memo("model_tune", (X_train, train_labels), extra, tune)
                if search.best_estimator_ is None:
                    search.refit(X_train, train_labels, *best)
            with obs.span("score", model=model_name, technique=technique):
                predictions = search.predict(X_test)
            return dict(search.best_params_), float(search.best_score_), predictions

        if scope is not None:
            # the whole tuned evaluation is deterministic in its seed and
            # its input bytes: a repair that turns out to be a no-op (or
            # to coincide with an earlier version or a sibling unit's
            # dirty version) reuses everything
            best_params, val_acc, predictions = scope.memo(
                "model_eval",
                (X_train, train_labels, X_test, version.test_labels),
                extra,
                tune_and_predict,
            )
        else:
            best_params, val_acc, predictions = tune_and_predict()
        metrics: dict[str, object] = {
            f"{technique}_best_params": dict(best_params),
            f"{technique}_val_acc": val_acc,
            f"{technique}_test_acc": accuracy_score(version.test_labels, predictions),
            f"{technique}_test_f1": f1_score(version.test_labels, predictions),
        }
        groups = group_confusions_from_masks(
            version.test_labels, predictions, self._masks_for(definition, version)
        )
        for group in groups:
            metrics.update(result_store_keys(technique, group))
        return metrics

    def _evaluate_model(
        self,
        definition: DatasetDefinition,
        error_type: str,
        dirty: _Version,
        repaired_versions: list[_Version],
        model_name: str,
        repetition: int,
        seed: int,
    ) -> int:
        pending = [
            version
            for version in repaired_versions
            if RunRecord(
                dataset=definition.name,
                error_type=error_type,
                detection=version.detection,
                repair=version.name,
                model=model_name,
                repetition=repetition,
                tuning_seed=seed,
            ).key
            not in self.store
        ]
        if not pending:
            return 0
        dirty_metrics = self._score_version(
            definition, dirty, model_name, seed, "dirty"
        )
        added = 0
        for version in pending:
            metrics = dict(dirty_metrics)
            metrics.update(
                self._score_version(definition, version, model_name, seed, version.name)
            )
            record = RunRecord(
                dataset=definition.name,
                error_type=error_type,
                detection=version.detection,
                repair=version.name,
                model=model_name,
                repetition=repetition,
                tuning_seed=seed,
                metrics=metrics,
            )
            self.store.add(record)
            added += 1
        return added
