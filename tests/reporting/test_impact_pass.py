"""The shared impact pass over the committed study store.

``repro tables``, ``repro report`` and ``build_audit`` each read the
store in one ``iter_records`` pass and never filter it with
``records(...)``; ``tables`` prints exactly the committed golden
output (``golden/tables.txt``, captured before the pass was shared).
``build_audit`` classifies each configuration once for all of its
metrics.
"""

from pathlib import Path

import pytest

from repro.__main__ import main
from repro.benchmark import ResultStore
from repro.benchmark.impact import ImpactAnalysis
from repro.obs import AUDIT_METRICS, build_audit

ROOT = Path(__file__).resolve().parents[2]
STUDY = ROOT / "benchmarks" / "_results" / "study.json"
GOLDEN_TABLES = Path(__file__).parent / "golden" / "tables.txt"


@pytest.fixture
def store_reads(monkeypatch):
    """Count ``ResultStore.iter_records`` and ``ResultStore.records`` calls."""
    calls = {"iter_records": 0, "records": 0}
    for name in calls:
        original = getattr(ResultStore, name)

        def counted(self, *args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(ResultStore, name, counted)
    return calls


def test_tables_cli_matches_golden_in_one_pass(store_reads, capsys):
    assert main(["tables", "--store", str(STUDY)]) == 0
    assert capsys.readouterr().out == GOLDEN_TABLES.read_text()
    assert store_reads == {"iter_records": 1, "records": 0}


def test_report_cli_reads_the_store_once(store_reads, capsys):
    assert main(["report", "--store", str(STUDY)]) == 0
    assert "## Table XIV: model choice" in capsys.readouterr().out
    assert store_reads == {"iter_records": 1, "records": 0}


def test_build_audit_reads_the_store_once(store_reads):
    audit = build_audit(ResultStore(STUDY))
    assert audit.n_records == len(ResultStore(STUDY))
    assert store_reads == {"iter_records": 1, "records": 0}


@pytest.fixture
def classify_calls(monkeypatch):
    """Count ``ImpactAnalysis.classify`` calls and the metrics of each."""
    calls = []
    original = ImpactAnalysis.classify

    def counted(self, records, group_keys, metric_names):
        calls.append(metric_names)
        return original(self, records, group_keys, metric_names)

    monkeypatch.setattr(ImpactAnalysis, "classify", counted)
    return calls


def test_build_audit_classifies_each_configuration_once(classify_calls):
    build_audit(ResultStore(STUDY))
    assert len(classify_calls) == 222
    assert set(classify_calls) == {AUDIT_METRICS}


def test_impacts_of_several_metrics_fill_the_per_metric_memo(classify_calls):
    analysis = ImpactAnalysis(ResultStore(STUDY))
    together = analysis.impacts("PP", "EO")
    assert len(classify_calls) == 222
    single = [analysis.impacts("PP"), analysis.impacts("EO")]
    assert len(classify_calls) == 222
    assert together == single[0] + single[1]
    assert {impact.metric_name for impact in single[0]} == {"PP"}
    # only the metric not yet classified is classified
    analysis.impacts("EO", "DP")
    assert classify_calls[222:] == [("DP",)] * 222
