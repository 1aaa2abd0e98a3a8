"""Outside-in per-layer timing for the study benchmark.

Each layer is timed by wrapping its public entry points where their
callers look them up (a module attribute such as
``repro.benchmark.runner.group_masks`` or a class attribute such as
``GridSearchCV.fit``). Nothing inside ``src/`` is touched: the
wrappers are installed before a traced pass and removed afterwards,
and :meth:`LayerClock.uninstall` restores the original objects.

Self time is a wrapped call's duration minus the time its wrapped
descendants took, so the self times of one process never add up to
more than its wall time; the remainder is reported as ``other``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from typing import Any, Callable

#: Marker names: timed like layers but kept off the self-time stack,
#: so the time they enclose still belongs to the layers inside them.
UNIT = "unit"
CELL = "cell"


class LayerClock:
    """Self-time accumulator plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.owner_pid = os.getpid()
        self.dump_path: str | None = None
        #: ``repro.obs.span`` while a timed call should also open a
        #: trace span of its layer's name (for the Chrome trace of a
        #: workload the program itself does not trace), else None.
        self.span: Callable[..., Any] | None = None
        self._patches: list[tuple[Any, str, Any, bool]] = []
        self.reset()

    # -- accounting ----------------------------------------------------

    def reset(self) -> None:
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, float] = {}
        self.marks: dict[str, float] = {}
        self._stack: list[list[Any]] = []

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def mark(self, name: str, seconds: float) -> None:
        self.marks[name] = self.marks.get(name, 0.0) + seconds

    def _enter(self, layer: str) -> None:
        self._stack.append([layer, time.perf_counter(), 0.0])

    def _exit(self) -> None:
        layer, started, inner = self._stack.pop()
        elapsed = time.perf_counter() - started
        self.self_s[layer] = self.self_s.get(layer, 0.0) + elapsed - inner
        self.calls[layer] = self.calls.get(layer, 0) + 1
        if self._stack:
            self._stack[-1][2] += elapsed

    def snapshot(self) -> dict[str, Any]:
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "marks": dict(self.marks),
        }

    # -- wrapping ------------------------------------------------------

    def wrap(
        self,
        target: str,
        layer: str | None,
        around: Callable[..., Any] | None = None,
    ) -> None:
        """Wrap ``module:attr[.attr]`` so calls are timed as ``layer``.

        ``around(original, *args, **kwargs)``, when given, makes the
        call itself and may count outcomes; with ``layer`` None the
        wrapper only runs ``around`` and times nothing.
        """
        module_name, _, path = target.partition(":")
        owner: Any = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for name in parents:
            owner = getattr(owner, name)
        own = isinstance(owner, type) and attr in vars(owner)
        original = vars(owner)[attr] if own else getattr(owner, attr)
        call = original if around is None else functools.partial(around, original)
        if layer is None:
            wrapper = self._plain(original, call)
        elif inspect.isgeneratorfunction(original):
            wrapper = self._timed_generator(original, call, layer)
        else:
            wrapper = self._timed(original, call, layer)
        self._patches.append((owner, attr, original, own or not isinstance(owner, type)))
        setattr(owner, attr, wrapper)

    @staticmethod
    def _plain(original, call):
        # a real function, not the partial itself: partials do not bind
        # ``self`` when stored on a class
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return call(*args, **kwargs)

        return wrapper

    def _timed(self, original, call, layer):
        clock = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            clock._enter(layer)
            try:
                if clock.span is None:
                    return call(*args, **kwargs)
                with clock.span(layer):
                    return call(*args, **kwargs)
            finally:
                clock._exit()

        return wrapper

    def _timed_generator(self, original, call, layer):
        clock = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            # only the generator's own steps count; the consumer's work
            # between them belongs to whoever consumes
            inner = call(*args, **kwargs)
            while True:
                clock._enter(layer)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    clock._exit()
                yield item

        return wrapper

    def timed_iter(self, iterable, layer: str):
        """Iterate ``iterable``, timing each step as ``layer``."""
        iterator = iter(iterable)
        while True:
            self._enter(layer)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self._exit()
            yield item

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, original, restore = self._patches.pop()
            if restore:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def entry_points() -> dict[str, Any]:
    """Every wrappable target as currently bound, for identity checks."""
    bound = {}
    for target, _layer in STUDY_LAYERS + TABLES_LAYERS:
        module_name, _, path = target.partition(":")
        obj: Any = importlib.import_module(module_name)
        for name in path.split("."):
            obj = getattr(obj, name)
        bound[target] = obj
    return bound


#: (entry point as bound where its callers look it up, layer name).
STUDY_LAYERS: list[tuple[str, str | None]] = [
    ("repro.benchmark.parallel:load_dataset", "datasets.generate"),
    ("repro.benchmark.runner:train_test_split_table", "tabular.split"),
    ("repro.tabular.table:Table.sample_rows", "tabular.split"),
    ("repro.tabular.table:Table.missing_mask", "cleaning.detect"),
    ("repro.cleaning.detection:_IntervalOutlierDetector.fit", "cleaning.detect"),
    ("repro.cleaning.detection:_IntervalOutlierDetector.apply", "cleaning.detect"),
    ("repro.cleaning.detection:IsolationForestOutlierDetector.fit", "cleaning.detect"),
    ("repro.cleaning.detection:IsolationForestOutlierDetector.apply", "cleaning.detect"),
    ("repro.cleaning.mislabels:ConfidentLearningDetector.detect", "cleaning.detect"),
    ("repro.cleaning.repair:MissingValueRepair.fit", "cleaning.repair"),
    ("repro.cleaning.repair:MissingValueRepair.transform", "cleaning.repair"),
    ("repro.cleaning.repair:OutlierRepair.fit", "cleaning.repair"),
    ("repro.cleaning.repair:OutlierRepair.transform", "cleaning.repair"),
    ("repro.cleaning.repair:LabelFlipRepair.repair", "cleaning.repair"),
    ("repro.ml.incremental:version_delta", "ml.delta"),
    ("repro.ml.incremental:featurize_version", "ml.featurize"),
    ("repro.ml.incremental:incremental_featurize", "ml.featurize"),
    ("repro.ml.featurize:TabularFeaturizer.fit", "ml.featurize"),
    ("repro.ml.featurize:TabularFeaturizer.transform", "ml.featurize"),
    ("repro.ml.model_selection:GridSearchCV.fit", "ml.tune"),
    ("repro.ml.model_selection:GridSearchCV.predict", "ml.predict"),
    ("repro.ml.incremental:ReuseScope.memo", None),
    ("repro.benchmark.runner:group_masks", "fairness.masks"),
    ("repro.benchmark.runner:group_confusions_from_masks", "fairness.confusions"),
    ("repro.benchmark.results:ResultStore.add", "results.write"),
    ("repro.benchmark.results:ResultStore.save", "results.write"),
    ("repro.benchmark.results:JournalWriter.write", "results.write"),
    ("repro.benchmark.parallel:_ShardStore.add", "results.write"),
    ("repro.benchmark.parallel:plan_work_units", "parallel.plan"),
    ("repro.benchmark.transport:ShmRegistry.lease", "transport.publish"),
    ("repro.benchmark.transport:ShmRegistry.release", "transport.publish"),
    ("repro.benchmark.transport:ShmRegistry.close", "transport.publish"),
    ("repro.benchmark.parallel:attach_table", "transport.publish"),
    ("multiprocessing.pool:Pool.imap_unordered", "parallel.wait"),
    ("repro.benchmark.parallel:_execute_unit", UNIT),
    ("repro.benchmark.runner:ExperimentRunner.run_repetition_cells", UNIT),
    ("repro.benchmark.runner:ExperimentRunner._evaluate_model", CELL),
]

TABLES_LAYERS: list[tuple[str, str | None]] = [
    ("repro.benchmark.results:ResultStore.records", "results.scan"),
    ("repro.benchmark.results:ResultStore.iter_records", "results.scan"),
    ("repro.benchmark.impact:classify_impact", "stats.ttest"),
    ("repro.benchmark.impact:ImpactAnalysis.configuration_impacts", "impact.classify"),
    ("repro.benchmark.deepdive:DeepDive.model_summaries", "impact.classify"),
    ("repro.benchmark.deepdive:DeepDive.case_counts", "impact.classify"),
    ("repro.benchmark.deepdive:DeepDive.dummy_vs_mode_imputation", "impact.classify"),
    ("repro.benchmark.deepdive:DeepDive.detection_worsening_rates", "impact.classify"),
    ("repro.reporting:render_impact_matrix", "reporting.render"),
    ("repro.reporting:render_model_table", "reporting.render"),
    ("repro.reporting:render_case_counts", "reporting.render"),
    ("repro.obs:render_audit", "reporting.render"),
    ("repro.obs:render_audit_diff", "reporting.render"),
    ("repro.obs:build_audit", "obs.audit"),
    ("repro.obs:diff_audits", "obs.audit"),
]


def install_study(clock: LayerClock) -> None:
    """Wrap every study-layer entry point (see :data:`STUDY_LAYERS`)."""

    def tune(original, search, *args, **kwargs):
        result = original(search, *args, **kwargs)
        clock.count("tune_fits")
        clock.count("tune_fastpath", int(search.used_fast_path_))
        return result

    def memo(original, scope, kind, arrays, extra, compute):
        if kind != "model_eval":
            return original(scope, kind, arrays, extra, compute)
        computed = []

        def counted():
            computed.append(True)
            return compute()

        value = original(scope, kind, arrays, extra, counted)
        clock.count("memo_lookups")
        clock.count("memo_hits", 0 if computed else 1)
        return value

    def detect(original, detector, *args, **kwargs):
        result = original(detector, *args, **kwargs)
        if hasattr(result, "row_mask"):
            clock.count("detect_rows", result.row_mask.size)
            clock.count("detect_flagged", int(result.row_mask.sum()))
        return result

    def featurize(counter):
        def around(original, *args, **kwargs):
            result = original(*args, **kwargs)
            if result is not None:
                clock.count(counter)
            return result

        return around

    def imap(original, pool, *args, **kwargs):
        return clock.timed_iter(original(pool, *args, **kwargs), "parallel.wait")

    def unit(original, task):
        # pool workers inherit the parent's clock at fork: start each
        # unit from zero and append its deltas to a per-worker file
        in_worker = os.getpid() != clock.owner_pid
        if in_worker:
            clock.reset()
        started = time.perf_counter()
        try:
            return original(task)
        finally:
            clock.mark("unit_s", time.perf_counter() - started)
            clock.count("units")
            if in_worker and clock.dump_path is not None:
                with open(f"{clock.dump_path}.w{os.getpid()}.jsonl", "a") as handle:
                    handle.write(json.dumps(clock.snapshot()) + "\n")

    def unit_cells(original, runner, definition, table, error_type, *rest, **kw):
        started = time.perf_counter()
        try:
            return original(runner, definition, table, error_type, *rest, **kw)
        finally:
            clock.mark(f"prep|{error_type}", time.perf_counter() - started)
            cells = rest[1] if len(rest) > 1 else kw.get("cells", ())
            clock.count(f"cells|{error_type}", len(cells))

    def cell(original, runner, definition, error_type, dirty, repaired, model, *rest):
        started = time.perf_counter()
        try:
            return original(runner, definition, error_type, dirty, repaired, model, *rest)
        finally:
            elapsed = time.perf_counter() - started
            clock.mark(f"cell|{error_type}|{model}", elapsed)
            clock.mark(f"prep|{error_type}", -elapsed)
            clock.count(f"cell|{error_type}|{model}")

    arounds: dict[str, Callable[..., Any]] = {
        "repro.ml.model_selection:GridSearchCV.fit": tune,
        "repro.ml.incremental:ReuseScope.memo": memo,
        "repro.ml.incremental:featurize_version": featurize("featurize_cold"),
        "repro.ml.incremental:incremental_featurize": featurize("featurize_patched"),
        "multiprocessing.pool:Pool.imap_unordered": imap,
        "repro.benchmark.parallel:_execute_unit": unit,
        "repro.benchmark.runner:ExperimentRunner.run_repetition_cells": unit_cells,
        "repro.benchmark.runner:ExperimentRunner._evaluate_model": cell,
    }
    for target, layer in STUDY_LAYERS:
        around = arounds.get(target)
        if around is None and layer == "cleaning.detect" and "missing_mask" not in target:
            around = detect
        if layer in (UNIT, CELL, None) or target.endswith("imap_unordered"):
            # markers and counters time themselves; imap's iterator is
            # timed per step by ``timed_iter``
            clock.wrap(target, None, around)
        else:
            clock.wrap(target, layer, around)


def install_tables(clock: LayerClock) -> None:
    """Wrap every analysis-layer entry point (see :data:`TABLES_LAYERS`)."""

    def configurations(original, analysis, *args, **kwargs):
        impacts = original(analysis, *args, **kwargs)
        clock.count("configurations", len(impacts))
        return impacts

    for target, layer in TABLES_LAYERS:
        around = configurations if target.endswith("configuration_impacts") else None
        clock.wrap(target, layer, around)


def merge_worker_dumps(clock: LayerClock) -> dict[str, Any]:
    """Sum and remove the per-unit snapshots pool workers appended."""
    total: dict[str, Any] = {"self_s": {}, "calls": {}, "counts": {}, "marks": {}}
    if clock.dump_path is None:
        return total
    directory, stem = os.path.split(clock.dump_path)
    for name in sorted(os.listdir(directory)):
        if not (name.startswith(f"{stem}.w") and name.endswith(".jsonl")):
            continue
        path = os.path.join(directory, name)
        with open(path) as handle:
            for line in handle:
                snapshot = json.loads(line)
                for section, values in snapshot.items():
                    bucket = total[section]
                    for key, value in values.items():
                        bucket[key] = bucket.get(key, 0) + value
        os.remove(path)
    return total
