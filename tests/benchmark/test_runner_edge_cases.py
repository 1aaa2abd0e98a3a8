"""Edge-case tests for the experiment runner's version preparation."""

import numpy as np
import pytest

from repro.benchmark import ResultStore, StudyConfig, run_parallel_study
from repro.benchmark.runner import _seed_for
from repro.datasets import DatasetDefinition
from repro.fairness.groups import Comparison, GroupPredicate
from repro.tabular import Table


def make_definition(generator, error_types=("missing_values",)):
    return DatasetDefinition(
        name="edge",
        source_domain="test",
        generator=generator,
        default_n_rows=100,
        label="label",
        error_types=error_types,
        drop_variables=("sex",),
        privileged_groups=(GroupPredicate("sex", Comparison.EQ, "male"),),
    )


def run_custom(definition, error_type, store=None, n_sample=100, **kwargs):
    """Run one custom definition in-process; returns records added."""
    config = StudyConfig(
        n_sample=n_sample,
        n_repetitions=1,
        dataset_sizes={"edge": n_sample},
    )
    return run_parallel_study(
        config,
        ResultStore() if store is None else store,
        datasets=(definition,),
        error_types=(error_type,),
        **kwargs,
    )


def test_seed_for_is_deterministic_and_distinct():
    assert _seed_for("a", 1) == _seed_for("a", 1)
    assert _seed_for("a", 1) != _seed_for("a", 2)
    assert _seed_for("a", 1) != _seed_for("b", 1)


def test_single_class_training_labels_are_skipped():
    def generator(n_rows, seed):
        rng = np.random.default_rng(seed)
        return Table.from_columns(
            {
                "x": rng.normal(size=n_rows),
                "sex": ["male", "female"] * (n_rows // 2),
                "label": np.ones(n_rows),
            }
        )

    definition = make_definition(generator, error_types=("mislabels",))
    assert run_custom(definition, "mislabels", models=("log_reg",)) == 0


def test_all_rows_missing_skips_missing_value_run():
    def generator(n_rows, seed):
        rng = np.random.default_rng(seed)
        return Table.from_columns(
            {
                "x": np.full(n_rows, np.nan),
                "sex": ["male", "female"] * (n_rows // 2),
                "label": (rng.random(n_rows) < 0.5).astype(float),
            }
        )

    definition = make_definition(generator)
    assert run_custom(definition, "missing_values") == 0


def test_error_type_not_declared_returns_zero():
    def generator(n_rows, seed):
        return Table.from_columns(
            {
                "x": np.zeros(n_rows),
                "sex": ["male"] * n_rows,
                "label": np.zeros(n_rows),
            }
        )

    definition = make_definition(generator, error_types=("missing_values",))
    assert run_custom(definition, "outliers") == 0


def test_clean_dataset_missing_value_repairs_are_noops_with_equal_scores():
    """Without any missing values, dirty and repaired versions coincide."""

    def generator(n_rows, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=n_rows)
        sexes = np.array(["male", "female"])[rng.integers(0, 2, n_rows)]
        label = (x + rng.normal(scale=0.5, size=n_rows) > 0).astype(float)
        return Table.from_columns({"x": x, "sex": list(sexes), "label": label})

    store = ResultStore()
    definition = make_definition(generator)
    added = run_custom(definition, "missing_values", store, models=("log_reg",))
    assert added == 6
    for record in store.records():
        assert record.metrics["dirty_test_acc"] == pytest.approx(
            record.metrics[f"{record.repair}_test_acc"]
        )


def test_mislabel_flip_changes_training_labels_only():
    def generator(n_rows, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=n_rows)
        sexes = np.array(["male", "female"])[rng.integers(0, 2, n_rows)]
        label = (x > 0).astype(float)
        noisy = rng.random(n_rows) < 0.1
        label[noisy] = 1 - label[noisy]
        return Table.from_columns({"x": x, "sex": list(sexes), "label": label})

    store = ResultStore()
    definition = make_definition(generator, error_types=("mislabels",))
    added = run_custom(
        definition, "mislabels", store, n_sample=200, models=("log_reg",)
    )
    assert added == 1
    record = next(store.records())
    dirty_total = sum(
        record.metrics[f"dirty__sex_priv__{cell}"] for cell in ("tn", "fp", "fn", "tp")
    )
    clean_total = sum(
        record.metrics[f"flip_labels__sex_priv__{cell}"]
        for cell in ("tn", "fp", "fn", "tp")
    )
    assert dirty_total == clean_total
