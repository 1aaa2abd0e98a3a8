"""The logistic kernels against straightforward references kept here.

The logistic objective, its L-BFGS-B driver and the sigmoid are written
for few Python-level calls. Each must still compute exactly what the
plain form below computes, solved by ``scipy.optimize.minimize``: same
bits, not merely close. The logistic and kNN kernels must also give the
same bits whatever number of threads OpenBLAS runs.
"""

import numpy as np
from scipy import optimize

from repro.benchmark.models import model_search
from repro.benchmark.parallel import _set_blas_threads
from repro.ml import KNearestNeighborsClassifier, LogisticRegressionClassifier
from repro.ml.logistic import _sigmoid

STUDY_C_GRID = model_search("log_reg", tuning_seed=0).param_grid["C"]
STUDY_K_GRID = model_search("knn", tuning_seed=0).param_grid["n_neighbors"]


def reference_sigmoid(z):
    """The masked two-branch logistic function."""
    out = np.empty_like(z)
    positive = z >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
    exp_z = np.exp(z[~positive])
    out[~positive] = exp_z / (1.0 + exp_z)
    return out


def reference_objective(X, y_float, C):
    """The penalised NLL and its gradient, in one call."""
    n_features = X.shape[1]
    penalty = 1.0 / (2.0 * C)

    def objective(theta):
        w, b = theta[:n_features], theta[n_features]
        z = X @ w + b
        p = reference_sigmoid(z)
        loss = float(
            np.sum(np.logaddexp(0.0, z) - y_float * z) + penalty * (w @ w)
        )
        residual = p - y_float
        grad_w = X.T @ residual + 2.0 * penalty * w
        grad_b = float(np.sum(residual))
        return loss, np.concatenate([grad_w, [grad_b]])

    return objective


def reference_result(
    X, y_float, theta0, C, max_iter=200, tol=1e-6, objective=None, callback=None
):
    """``minimize``'s L-BFGS-B on a combined (loss, gradient) objective."""
    return optimize.minimize(
        objective or reference_objective(X, y_float, C),
        theta0,
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": max_iter, "gtol": tol},
        callback=callback,
    )


def reference_solve(X, y_float, theta0, C, max_iter=200, tol=1e-6):
    return reference_result(X, y_float, theta0, C, max_iter, tol).x


def reference_score_grid(X, y, X_eval, values):
    """Warm-started ascending-``C`` path, predictions per candidate."""
    y_float = y.astype(np.float64)
    predictions = np.empty((len(values), X_eval.shape[0]), dtype=np.int64)
    theta = np.zeros(X.shape[1] + 1)
    for index in sorted(range(len(values)), key=lambda i: values[i]):
        theta = reference_solve(X, y_float, theta.copy(), values[index])
        logits = X_eval @ theta[: X.shape[1]] + float(theta[X.shape[1]])
        predictions[index] = reference_sigmoid(logits) >= 0.5
    return predictions


def random_problem(rng):
    n = int(rng.integers(40, 400))
    d = int(rng.integers(1, 30))
    X = rng.normal(size=(n, d))
    X[:, 0] = X[:, 0] > 0  # one one-hot-like column, as in the study
    w = rng.normal(scale=float(rng.uniform(0.1, 5.0)), size=d)
    y = (X @ w + rng.normal(size=n) > 0).astype(np.int64)
    if y.min() == y.max():
        y[0] = 1 - y[0]
    return X, y


def badly_scaled_problem(seed):
    """One one-hot-like column scaled by 1e6-1e8: the first steps
    overshoot by orders of magnitude, so line searches run long."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(40, 400))
    x = (rng.normal(size=n) > 0).astype(np.float64)
    y = (x * rng.normal(scale=3.0) + rng.normal(size=n) > 0).astype(np.int64)
    return (x * 10.0 ** rng.uniform(6, 8))[:, None], y


def study_shaped_problem(rng):
    """Rows and columns like one CV fold of the study's adult/folk
    cells: a few standardised numeric columns and one-hot blocks."""
    n = int(rng.integers(900, 1401))
    blocks = [rng.normal(size=(n, int(rng.integers(3, 7))))]
    while sum(block.shape[1] for block in blocks) < 35:
        levels = int(rng.integers(2, 10))
        blocks.append(np.eye(levels)[rng.integers(0, levels, size=n)])
    X = np.hstack(blocks)[:, : int(rng.integers(35, 42))]
    w = rng.normal(size=X.shape[1])
    y = (X @ w + rng.normal(scale=2.0, size=n) > 0).astype(np.int64)
    return X, y


def test_sigmoid_bit_equal_to_masked_form_on_edge_values():
    z = np.array([0.0, -0.0, np.inf, -np.inf, 750.0, -750.0, 1e-300, -1e-300])
    assert _sigmoid(z).tobytes() == reference_sigmoid(z).tobytes()


def test_sigmoid_bit_equal_to_masked_form_on_random_inputs():
    rng = np.random.default_rng(0)
    for scale in (1e-3, 1.0, 40.0, 800.0):
        z = rng.normal(scale=scale, size=10_007)
        assert _sigmoid(z).tobytes() == reference_sigmoid(z).tobytes()


def test_logistic_fit_equals_reference_objective():
    rng = np.random.default_rng(1)
    for __ in range(8):
        X, y = random_problem(rng)
        for C in STUDY_C_GRID:
            model = LogisticRegressionClassifier(C=C).fit(X, y)
            theta = reference_solve(
                X, y.astype(np.float64), np.zeros(X.shape[1] + 1), C
            )
            assert model.coef_.tobytes() == theta[:-1].tobytes()
            assert model.intercept_ == float(theta[-1])


def test_logistic_score_grid_equals_reference_path():
    rng = np.random.default_rng(2)
    candidates = [{"C": C} for C in STUDY_C_GRID]
    for __ in range(8):
        X, y = random_problem(rng)
        X_eval = rng.normal(size=(60, X.shape[1]))
        fast = LogisticRegressionClassifier().score_grid(
            X, y, X_eval, np.zeros(60, dtype=np.int64), candidates
        )
        expected = reference_score_grid(X, y, X_eval, list(STUDY_C_GRID))
        assert np.array_equal(fast, expected)


def test_logistic_fit_equals_reference_when_max_iter_cuts_the_solve():
    """The driver's iteration stop must end where ``minimize``'s does."""
    rng = np.random.default_rng(3)
    problems = [random_problem(rng) for __ in range(4)]
    problems += [study_shaped_problem(rng) for __ in range(2)]
    for X, y in problems:
        y_float = y.astype(np.float64)
        for max_iter in (1, 2, 5):
            for C in (STUDY_C_GRID[0], STUDY_C_GRID[-1]):
                model = LogisticRegressionClassifier(C=C, max_iter=max_iter)
                model.fit(X, y)
                expected = reference_result(
                    X, y_float, np.zeros(X.shape[1] + 1), C, max_iter
                )
                assert expected.nit == max_iter and not expected.success
                assert model.coef_.tobytes() == expected.x[:-1].tobytes()
                assert model.intercept_ == float(expected.x[-1])


def test_logistic_fit_equals_reference_when_line_searches_run_long():
    """Pins the line-search budget ``_MAXLS``.

    Each problem makes one iteration's line search take more than 5
    evaluations. Seed 23 needs up to 19 in one search, and seed 44 has a
    search that fails at 20 evaluations but ends later under a larger
    budget, so every budget from 1 to 30 but 20 moves a coefficient bit
    of one of them (checked for 1-30, 40 and 100).
    """
    C = STUDY_C_GRID[0]
    for seed in (23, 44):
        X, y = badly_scaled_problem(seed)
        y_float = y.astype(np.float64)
        objective = reference_objective(X, y_float, C)
        evaluations = []

        def counting(theta):
            evaluations.append(None)
            return objective(theta)

        per_iteration = []
        expected = reference_result(
            X,
            y_float,
            np.zeros(2),
            C,
            objective=counting,
            callback=lambda *__: per_iteration.append(len(evaluations)),
        )
        # the first evaluation, at theta0, comes before any line search
        assert max(np.diff([1, *per_iteration])) > 5
        model = LogisticRegressionClassifier(C=C).fit(X, y)
        assert model.coef_.tobytes() == expected.x[:-1].tobytes()
        assert model.intercept_ == float(expected.x[-1])


def test_logistic_warm_path_equals_reference_on_study_shaped_inputs():
    """The ascending-``C`` warm-started path of ``score_grid``, solve by
    solve, on fold-sized mostly one-hot matrices."""
    rng = np.random.default_rng(4)
    for __ in range(3):
        X, y = study_shaped_problem(rng)
        y_float = y.astype(np.float64)
        theta = expected = np.zeros(X.shape[1] + 1)
        for C in sorted(STUDY_C_GRID):
            theta = LogisticRegressionClassifier(C=C)._solve(X, y_float, theta)
            expected = reference_solve(X, y_float, expected.copy(), C)
            assert theta.tobytes() == expected.tobytes(), C


def at_blas_threads(threads, compute):
    """``compute()`` with every loaded OpenBLAS on ``threads`` threads."""
    original = _set_blas_threads(threads)
    try:
        return compute()
    finally:
        _set_blas_threads(original)


def test_kernels_identical_at_one_and_two_blas_threads():
    """Predictions and logistic solutions must not depend on the BLAS
    thread count.

    The kNN distances themselves may: with two threads OpenBLAS's
    product can differ in the last bit in the final few training
    columns, on the rows where the threads' row blocks meet. Study
    processes therefore run one thread on every path; what is pinned
    here is that such a difference does not reach the outputs.
    """
    rng = np.random.default_rng(5)
    problems = [study_shaped_problem(rng) for __ in range(2)]
    knn_candidates = [{"n_neighbors": k} for k in STUDY_K_GRID]
    logistic_candidates = [{"C": C} for C in STUDY_C_GRID]

    def kernel_bytes():
        out = []
        for X, y in problems:
            n_train = 2 * X.shape[0] // 3
            split = (X[:n_train], y[:n_train], X[n_train:], y[n_train:])
            X_train, y_train, X_test, __ = split
            knn = KNearestNeighborsClassifier(n_neighbors=15).fit(X_train, y_train)
            logistic = LogisticRegressionClassifier().fit(X_train, y_train)
            knn_grid = KNearestNeighborsClassifier().score_grid(*split, knn_candidates)
            logistic_grid = LogisticRegressionClassifier().score_grid(
                *split, logistic_candidates
            )
            out += [
                knn.predict_proba(X_test).tobytes(),
                knn_grid.tobytes(),
                logistic.coef_.tobytes(),
                logistic.intercept_,
                logistic_grid.tobytes(),
            ]
        return out

    assert at_blas_threads(1, kernel_bytes) == at_blas_threads(2, kernel_bytes)
