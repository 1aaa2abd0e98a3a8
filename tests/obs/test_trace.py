"""Tests for the structured-tracing core (spans, sink, scoping)."""

import json
import threading

import pytest

from repro import obs
from repro.obs import NOOP_SPAN, TraceSink, Tracer, read_trace_events


def events_in(path):
    return read_trace_events([path])


# -- disabled fast path -------------------------------------------------


def test_disabled_helpers_are_noops(tmp_path):
    assert not obs.is_enabled()
    assert obs.span("cell", model="log_reg") is NOOP_SPAN
    obs.event("retry", attempt=1)
    obs.counter("cache_hit", cache="featurizer")
    obs.flush()
    assert list(tmp_path.iterdir()) == []


def test_noop_span_supports_full_span_protocol():
    with obs.span("cell") as span:
        assert span.set(model="x") is span
        assert span.add("records", 2) is span


def test_configure_with_none_path_stays_disabled():
    obs.configure(None, enabled=True)
    assert not obs.is_enabled()


# -- span semantics -----------------------------------------------------


def test_span_event_carries_timing_attrs_and_counters(tmp_path):
    path = tmp_path / "t.jsonl"
    obs.configure(path)
    with obs.span("cell", model="log_reg") as span:
        span.set(seed=3)
        span.add("records", 2)
        span.add("records", 1)
    obs.flush()
    (event,) = events_in(path)
    assert event["kind"] == "span"
    assert event["name"] == "cell"
    assert event["v"] == obs.SCHEMA_VERSION
    assert event["seconds"] >= 0.0
    assert event["attrs"] == {"model": "log_reg", "seed": 3}
    assert event["counters"] == {"records": 3.0}


def test_nested_spans_record_enclosing_path(tmp_path):
    path = tmp_path / "t.jsonl"
    obs.configure(path)
    with obs.span("unit"):
        with obs.span("cell"):
            with obs.span("tune"):
                pass
    obs.flush()
    assert [e["path"] for e in events_in(path)] == [
        "unit/cell/tune",
        "unit/cell",
        "unit",
    ]


def test_span_records_error_type_on_exception(tmp_path):
    path = tmp_path / "t.jsonl"
    obs.configure(path)
    with pytest.raises(ValueError):
        with obs.span("cell"):
            raise ValueError("boom")
    obs.flush()
    (event,) = events_in(path)
    assert event["attrs"]["error"] == "ValueError"


def test_threads_nest_independently(tmp_path):
    path = tmp_path / "t.jsonl"
    obs.configure(path)
    gate = threading.Barrier(2)

    def worker(name):
        with obs.span(name):
            gate.wait(timeout=5)
            with obs.span("inner"):
                gate.wait(timeout=5)

    threads = [
        threading.Thread(target=worker, args=(name,)) for name in ("a", "b")
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    obs.flush()
    inner_paths = {e["path"] for e in events_in(path) if e["name"] == "inner"}
    # each thread's inner span nests under its own outer span only
    assert inner_paths == {"a/inner", "b/inner"}


def test_event_and_metric_emission(tmp_path):
    path = tmp_path / "t.jsonl"
    obs.configure(path)
    obs.event("retry", attempt=1, error="Boom")
    obs.counter("timeouts")
    obs.counter("cache_hit", cache="masks")
    obs.flush()
    events = events_in(path)
    kinds = [e["kind"] for e in events]
    assert kinds.count("event") == 1
    assert kinds.count("metric") == 2
    assert {e["type"] for e in events if e["kind"] == "metric"} == {"counter"}
    (retry,) = [e for e in events if e["kind"] == "event"]
    assert retry["attrs"] == {"attempt": 1, "error": "Boom"}


def test_flush_drains_metrics_once(tmp_path):
    path = tmp_path / "t.jsonl"
    obs.configure(path)
    obs.counter("hits", 2)
    obs.flush()
    obs.flush()
    counters = [e for e in events_in(path) if e["kind"] == "metric"]
    assert len(counters) == 1
    assert counters[0]["value"] == 2.0


# -- sink ---------------------------------------------------------------


def test_sink_buffers_until_flush_every(tmp_path):
    path = tmp_path / "s.jsonl"
    sink = TraceSink(path, flush_every=3)
    sink.emit({"kind": "event", "name": "a"})
    sink.emit({"kind": "event", "name": "b"})
    assert not path.exists()
    sink.emit({"kind": "event", "name": "c"})
    assert len(path.read_text().splitlines()) == 3
    sink.close()


def test_sink_rejects_bad_flush_every(tmp_path):
    with pytest.raises(ValueError, match="flush_every"):
        TraceSink(tmp_path / "s.jsonl", flush_every=0)


def test_sink_appends_across_instances(tmp_path):
    path = tmp_path / "s.jsonl"
    for name in ("a", "b"):
        sink = TraceSink(path)
        sink.emit({"kind": "event", "name": name})
        sink.close()
    assert [json.loads(l)["name"] for l in path.read_text().splitlines()] == [
        "a",
        "b",
    ]


def test_read_trace_events_skips_torn_tail_and_garbage(tmp_path):
    path = tmp_path / "s.jsonl"
    path.write_text(
        '{"kind":"event","name":"ok"}\n'
        "not json at all\n"
        '["a","list"]\n'
        '{"kind":"event","name":"to'  # torn mid-write, no newline
    )
    events = events_in(path)
    assert [e["name"] for e in events] == ["ok"]


def test_read_trace_events_tolerates_missing_file(tmp_path):
    assert events_in(tmp_path / "never-written.jsonl") == []


# -- scoped redirection -------------------------------------------------


def test_scoped_redirects_and_restores(tmp_path):
    parent = tmp_path / "parent.jsonl"
    child = tmp_path / "child.jsonl"
    obs.configure(parent)
    obs.event("before")
    with obs.scoped(child):
        obs.event("inside")
        obs.counter("hits")
    obs.event("after")
    obs.flush()
    assert [e["name"] for e in events_in(child)] == ["inside", "hits"]
    assert [e["name"] for e in events_in(parent)] == ["before", "after"]


def test_scoped_flushes_on_exception(tmp_path):
    """Injected crashes must not lose the events that reported them."""
    child = tmp_path / "child.jsonl"
    with pytest.raises(RuntimeError):
        with obs.scoped(child):
            obs.event("fault_injected", fault="crash_pre_append")
            raise RuntimeError("injected crash")
    assert [e["name"] for e in events_in(child)] == ["fault_injected"]


def test_scoped_preserves_parent_buffer(tmp_path):
    """Unflushed parent events survive a nested scope untouched."""
    parent = tmp_path / "parent.jsonl"
    obs.configure(parent)
    obs.event("buffered")  # still in the parent sink's buffer
    with obs.scoped(tmp_path / "child.jsonl"):
        pass
    assert not parent.exists()
    obs.flush()
    assert [e["name"] for e in events_in(parent)] == ["buffered"]


def test_scoped_disabled_suppresses_emission(tmp_path):
    child = tmp_path / "child.jsonl"
    with obs.scoped(child, enabled=False):
        assert not obs.is_enabled()
        obs.event("dropped")
    assert not child.exists()


def test_independent_tracer_instances_do_not_interact(tmp_path):
    tracer = Tracer()
    tracer.configure(tmp_path / "own.jsonl")
    tracer.event("own")
    tracer.shutdown()
    assert not obs.is_enabled()
    assert [e["name"] for e in events_in(tmp_path / "own.jsonl")] == ["own"]
