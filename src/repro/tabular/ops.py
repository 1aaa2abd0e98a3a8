"""Table splitting."""

from __future__ import annotations

import numpy as np

from repro.tabular.table import Table


def train_test_split_table(
    table: Table,
    test_fraction: float,
    rng: np.random.Generator,
) -> tuple[Table, Table]:
    """Split a table into train/test partitions by random row assignment.

    Returns ``(train, test)`` where the test partition holds
    ``round(n_rows * test_fraction)`` rows.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    n_test = int(round(table.n_rows * test_fraction))
    if n_test == 0 or n_test == table.n_rows:
        raise ValueError(
            f"test_fraction {test_fraction} leaves an empty partition "
            f"for {table.n_rows} rows"
        )
    permutation = rng.permutation(table.n_rows)
    test_indices = permutation[:n_test]
    train_indices = permutation[n_test:]
    return table.take_rows(train_indices), table.take_rows(test_indices)
