"""Cross-version byte-identity against a checked-in golden store.

The differential tests in this package compare two runs of the *same*
code. This test pins the store bytes against a fixture captured with
the pre-dictionary-encoding object-array representation (PR 8), so a
representation change that shifted values, category order, mode
tie-breaks, or shard layout — even one that is internally consistent —
fails loudly. Regenerate the fixture only for an *intentional* output
change, by running the snippet in ``tests/identity/golden/``'s history:
one ``chaos_config()`` german/mislabels slice saved via
``ResultStore``. Every test here drives the study through
:func:`run_parallel_study` with one worker, the path ``repro study``
takes by default.
"""

from pathlib import Path

import pytest

from repro import obs
from repro.benchmark import ExecutorOptions, ResultStore, run_parallel_study
from repro.testing.fixtures import chaos_config, store_fingerprint

GOLDEN = Path(__file__).parent / "golden" / "study.json"


def run_golden_slice(store, **options):
    run_parallel_study(
        chaos_config(),
        store,
        workers=1,
        datasets=("german",),
        error_types=("mislabels",),
        options=ExecutorOptions(**options),
    )


def test_store_bytes_match_pre_encoding_golden(tmp_path):
    store = ResultStore(tmp_path / "study.json")
    run_golden_slice(store)

    actual = store_fingerprint(tmp_path / "study.json")
    golden = store_fingerprint(GOLDEN)
    assert actual.keys() == golden.keys(), (
        f"shard layout diverged from golden: "
        f"{sorted(actual)} != {sorted(golden)}"
    )
    diverged = [name for name in golden if actual[name] != golden[name]]
    assert not diverged, (
        f"store bytes diverged from the pre-encoding golden in {diverged}; "
        "the dictionary-encoded data plane must be byte-invisible"
    )


@pytest.fixture(scope="module")
def traced_golden(tmp_path_factory):
    """The golden slice run once with tracing on: (store path, store)."""
    store_path = tmp_path_factory.mktemp("traced") / "study.json"
    store = ResultStore(store_path)
    run_golden_slice(store, trace=True)
    return store_path, store


def test_store_bytes_match_golden_with_full_telemetry(traced_golden):
    """Every kind of telemetry must be byte-invisible to records.

    The same golden slice runs with tracing on — spans, heartbeats and
    other point events, and counters — and must still produce a store
    fingerprint identical to the fixture. Telemetry may only ever land
    in trace sidecars, never in a record.
    """
    store_path, __ = traced_golden
    trace_path = store_path.with_name("study.trace.jsonl")
    assert trace_path.exists() and trace_path.stat().st_size > 0
    events = obs.read_trace_events([trace_path])
    assert any(event.get("name") == "heartbeat" for event in events)
    kinds = {
        (event["kind"], event.get("type"))
        for event in events
        if event["kind"] != "event"
    }
    assert kinds == {("span", None), ("metric", "counter")}

    actual = store_fingerprint(store_path)
    golden = store_fingerprint(GOLDEN)
    assert actual.keys() == golden.keys()
    diverged = [name for name in golden if actual[name] != golden[name]]
    assert not diverged, (
        f"store bytes diverged from golden in {diverged} with telemetry "
        "enabled; telemetry must be byte-invisible"
    )


def test_store_bytes_match_golden_with_fairness_telemetry_and_ledger(traced_golden):
    """Tracing must be byte-invisible, and a study keeps no run ledger.

    The golden slice runs with tracing on; the store fingerprint must
    stay identical to the fixture — telemetry lives in the trace
    sidecar only, and no ``{stem}.ledger.jsonl`` is written. A second
    audit of the identical bytes must also diff clean.
    """
    from repro.obs import build_audit, diff_audits

    store_path, store = traced_golden
    assert store_path.with_name("study.trace.jsonl").stat().st_size > 0
    assert not store_path.with_name("study.ledger.jsonl").exists()
    assert store.journal_paths() == []

    actual = store_fingerprint(store_path)
    golden = store_fingerprint(GOLDEN)
    assert actual.keys() == golden.keys()
    diverged = [name for name in golden if actual[name] != golden[name]]
    assert not diverged, (
        f"store bytes diverged from golden in {diverged} with tracing "
        "enabled; telemetry must only ever land in sidecars"
    )

    # self-diff discipline: auditing the same bytes twice reports
    # nothing — the CI gate can never flag an unchanged run
    audit = build_audit(store)
    diff = diff_audits(audit, build_audit(ResultStore(store_path)))
    assert diff.findings and diff.regressions == []
    assert all(f.move == 0 and f.baseline == f.candidate for f in diff.findings)
