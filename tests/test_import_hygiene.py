"""A study process never loads ``scipy.stats``.

``scipy.stats`` costs about 0.4 s of import time and 23 MB of RSS, and
only the analysis side (the G² test and the paired t-tests behind
``ImpactAnalysis``) needs it, so ``repro.stats`` imports it inside the
two functions that call it. The check runs in a fresh interpreter,
because any earlier test in this process may already have imported it.
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
    from repro.stats import g_test

    assert "scipy.stats" not in sys.modules, "import repro loaded scipy.stats"
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


def test_study_process_never_imports_scipy_stats():
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (src, env.get("PYTHONPATH")) if path
    )
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip().endswith("ok")
