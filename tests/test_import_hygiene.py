"""A study process never loads ``scipy.stats`` or ``scipy.optimize``.

``scipy.stats`` costs about 0.4 s of import time and 23 MB of RSS, and
only the analysis side (the G² test and the paired t-tests behind
``ImpactAnalysis``) needs it, so ``repro.stats`` imports it inside the
two functions that call it. The logistic solver needs only scipy's
compiled ``_lbfgsb`` extension, which ``repro.ml.logistic`` loads from
its file; executing the ``scipy.optimize`` package would also load
``scipy.linalg``, ``scipy.sparse`` and ``scipy.special``. The checks
run in a fresh interpreter, because any earlier test in this process
may already have imported these packages.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import repro

SCRIPT = textwrap.dedent(
    """
    import sys
    import tempfile
    from pathlib import Path

    import numpy as np

    import repro
    from repro import StudyConfig
    from repro.benchmark import ImpactAnalysis, ResultStore, run_parallel_study
    from repro.ml import LogisticRegressionClassifier, logistic
    from repro.stats import g_test

    UNUSED = ("scipy.optimize", "scipy.linalg", "scipy.sparse", "scipy.special")

    def loaded(names):
        return [name for name in names if name in sys.modules]

    assert "scipy.stats" not in sys.modules, "import repro loaded scipy.stats"
    assert not loaded(UNUSED), f"import repro loaded {loaded(UNUSED)}"
    with tempfile.TemporaryDirectory() as directory:
        store = ResultStore(Path(directory) / "study.json")
        config = StudyConfig(
            n_sample=300,
            n_repetitions=2,
            models=("log_reg",),
            dataset_sizes={"german": 600},
        )
        added = run_parallel_study(
            config,
            store,
            workers=1,
            datasets=("german",),
            error_types=("mislabels",),
        )
        assert added > 0
        assert "scipy.stats" not in sys.modules, "the study loaded scipy.stats"
        assert not loaded(UNUSED), f"the study loaded {loaded(UNUSED)}"

        # scipy.optimize imported afterwards reuses the solver's extension
        from scipy import optimize
        from scipy.optimize import _lbfgsb

        assert _lbfgsb is logistic._lbfgsb
        assert optimize._lbfgsb_py._lbfgsb is logistic._lbfgsb
        rng = np.random.default_rng(0)
        X = rng.normal(size=(200, 6))
        X[:, 0] *= 1e3
        y = (X[:, 1] + rng.normal(size=200) > 0).astype(np.int64)
        y_float = y.astype(np.float64)

        def objective(theta):
            z = X @ theta[:-1] + theta[-1]
            p = np.empty_like(z)
            positive = z >= 0
            p[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
            exp_z = np.exp(z[~positive])
            p[~positive] = exp_z / (1.0 + exp_z)
            w = theta[:-1]
            loss = np.sum(np.logaddexp(0.0, z) - y_float * z) + 0.5 * (w @ w)
            residual = p - y_float
            grad = np.concatenate([X.T @ residual + w, [np.sum(residual)]])
            return float(loss), grad

        expected = optimize.minimize(
            objective,
            np.zeros(7),
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": 200, "gtol": 1e-6},
        ).x
        model = LogisticRegressionClassifier(C=1.0).fit(X, y)
        assert model.coef_.tobytes() == expected[:-1].tobytes()
        assert model.intercept_ == float(expected[-1])

        # the deferred imports still resolve on the analysis side
        impacts = ImpactAnalysis(store).configuration_impacts(
            "mislabels", "EO", intersectional=False
        )
        assert impacts
        assert "scipy.stats" in sys.modules, "no paired t-test ran"
    result = g_test(np.array([[30, 10], [12, 28]]))
    assert 0.0 < result.p_value < 0.05
    print("ok")
    """
)


#: ``repro study`` on the CI fairness gate's configuration, in-process.
CLI_SCRIPT = textwrap.dedent(
    """
    import sys
    import tempfile
    from pathlib import Path

    from repro.__main__ import main

    with tempfile.TemporaryDirectory() as directory:
        store = str(Path(directory) / "gate.json")
        code = main(
            [
                "study", "--store", store,
                "--dataset", "german", "--error-type", "mislabels",
                "--n-sample", "300", "--repetitions", "2",
                "--tuning-seeds", "1", "--models", "log_reg",
            ]
        )
        assert code == 0, code
        assert sorted(path.name for path in Path(directory).iterdir()) == [
            "gate.json",
            "gate.store",
        ]
    assert "scipy.stats" not in sys.modules, "repro study loaded scipy.stats"
    print("ok")
    """
)


def run_fresh(script):
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (src, env.get("PYTHONPATH")) if path
    )
    completed = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip().endswith("ok")


def test_study_process_never_imports_scipy_stats():
    run_fresh(SCRIPT)


def test_study_command_never_imports_scipy_stats():
    """``repro study`` audits nothing after saving, so the command
    stays as light as the library call."""
    run_fresh(CLI_SCRIPT)
