"""The bounded on-disk trace store: segments, eviction, torn lines."""

import json

import pytest

from repro.obs import core as obs
from repro.obs import jsonl, metrics
from repro.obs.tracestore import TraceStore, make_record


def validate_trace_record(obj):
    jsonl.validate(obj, jsonl.TRACE_RECORD)


@pytest.fixture(autouse=True)
def fresh_registry():
    metrics.registry().reset()
    yield


def _record(i=0, trace=None, spans=None):
    return {
        "kind": "trace_record", "schema": 1,
        "trace": trace or "trace-{}".format(i),
        "proc": "testproc", "origin": "test", "op": "unit.test",
        "unit": None, "ms": 1.0 + i, "ok": True, "ts": 1767225600.0 + i,
        "parent": None,
        "spans": spans if spans is not None else [
            {"name": "root", "id": 1, "parent": None,
             "duration_ms": 1.0}],
        "notes": {}, "dropped": 0,
    }


def test_append_and_read_round_trip(tmp_path):
    store = TraceStore(tmp_path / "traces")
    for i in range(5):
        assert store.append(_record(i)) is True
    records = store.records()
    assert [r["trace"] for r in records] == [
        "trace-{}".format(i) for i in range(5)]
    assert metrics.registry().counter("obs.trace.flushed").value == 5


def test_trace_and_traces_group_by_id(tmp_path):
    store = TraceStore(tmp_path / "traces")
    store.append(_record(0, trace="shared"))
    store.append(_record(1, trace="shared"))
    store.append(_record(2, trace="solo"))
    grouped = store.traces()
    assert set(grouped) == {"shared", "solo"}
    assert len(store.trace("shared")) == 2
    assert store.trace("unknown") == []


def test_segments_rotate_at_the_size_cap(tmp_path):
    store = TraceStore(tmp_path / "traces", segment_bytes=512)
    for i in range(20):
        store.append(_record(i))
    segments = list((tmp_path / "traces").glob("seg-*.jsonl"))
    assert len(segments) > 1
    # Rotation must not lose records.
    assert len(store.records()) == 20


def test_eviction_drops_oldest_but_never_the_open_segment(tmp_path):
    store = TraceStore(tmp_path / "traces", max_bytes=1500,
                       segment_bytes=400)
    for i in range(40):
        store.append(_record(i))
    total = sum(p.stat().st_size
                for p in (tmp_path / "traces").glob("seg-*.jsonl"))
    assert total <= 1500 + 400  # cap plus at most the open segment
    assert metrics.registry().counter("obs.trace.evicted").value > 0
    survivors = store.records()
    assert survivors  # newest records survive
    assert survivors[-1]["trace"] == "trace-39"


def test_only_opening_a_segment_lists_the_store(tmp_path, monkeypatch):
    store = TraceStore(tmp_path / "traces", max_bytes=3000,
                       segment_bytes=1000)
    listings = []
    real = TraceStore._segments
    monkeypatch.setattr(TraceStore, "_segments",
                        lambda self: listings.append(1) or real(self))
    opened, segment = 0, None
    for i in range(60):
        store.append(_record(i))
        if store._segment != segment:
            opened, segment = opened + 1, store._segment
        # One listing per segment this writer opened, none in between.
        assert len(listings) == opened
    assert opened > 5
    assert metrics.registry().counter("obs.trace.evicted").value > 0
    sizes = {p: p.stat().st_size
             for p in (tmp_path / "traces").glob("seg-*.jsonl")}
    closed = sum(size for p, size in sizes.items() if p != store._segment)
    assert closed <= 3000
    assert sum(sizes.values()) <= 3000 + sizes[store._segment]


def test_torn_line_is_skipped_with_counter(tmp_path):
    store = TraceStore(tmp_path / "traces")
    store.append(_record(0))
    store.append(_record(1))
    segment = next((tmp_path / "traces").glob("seg-*.jsonl"))
    lines = segment.read_text().splitlines()
    # Tear the first record mid-line, as a writer dying would.
    segment.write_text(lines[0][: len(lines[0]) // 3] + "\n"
                       + lines[1] + "\n")
    records = store.records()
    assert [r["trace"] for r in records] == ["trace-1"]
    assert metrics.registry().counter("obs.trace.torn_skipped").value == 1


def test_invalid_record_is_skipped_with_its_own_counter(tmp_path):
    store = TraceStore(tmp_path / "traces")
    store.append(_record(0))
    segment = next((tmp_path / "traces").glob("seg-*.jsonl"))
    with open(segment, "a") as f:
        f.write(json.dumps({"kind": "not_a_trace"}) + "\n")
    assert len(store.records()) == 1
    registry = metrics.registry()
    assert registry.counter("obs.trace.invalid_skipped").value == 1
    assert registry.counter("obs.trace.torn_skipped").value == 0


def test_append_never_raises_on_a_bad_record(tmp_path):
    store = TraceStore(tmp_path / "traces")
    assert store.append({"kind": "wrong"}) is False
    assert store.append(_record(0, spans=[{"no": "name"}])) is False
    registry = metrics.registry()
    assert registry.counter("obs.trace.store_errors").value == 2
    assert store.records() == []


def test_append_never_raises_on_an_unwritable_root(tmp_path):
    blocked = tmp_path / "blocked"
    blocked.write_text("a file where the store dir should be")
    store = TraceStore(blocked / "traces")
    assert store.append(_record(0)) is False
    assert metrics.registry().counter(
        "obs.trace.store_errors").value == 1


def test_reading_a_missing_store_is_empty(tmp_path):
    store = TraceStore(tmp_path / "never-created")
    assert store.records() == []
    assert store.traces() == {}
    assert store.stats()["segments"] == 0


def test_make_record_from_a_collecting_scope():
    scope = obs.trace_scope("rec-trace", collect=True,
                            remote_parent=("parentproc", 9))
    with scope:
        with obs.span("outer"):
            with obs.span("inner"):
                pass
        obs.trace_note("cache", "hit")
    record = make_record(scope, origin="test", op="unit", ms=12.5,
                         ok=True, unit="demo")
    validate_trace_record(record)
    assert record["trace"] == "rec-trace"
    assert record["parent"] == {"proc": "parentproc", "span": 9}
    assert record["unit"] == "demo"
    assert record["notes"] == {"cache": "hit"}
    names = [s["name"] for s in record["spans"]]
    assert names == ["outer", "inner"]


def test_validate_rejects_missing_keys_and_bad_types():
    with pytest.raises(ValueError):
        validate_trace_record([])
    record = _record(0)
    del record["spans"]
    with pytest.raises(ValueError):
        validate_trace_record(record)
    record = _record(0)
    record["ok"] = "yes"
    with pytest.raises(ValueError):
        validate_trace_record(record)
    record = _record(0)
    record["parent"] = {"proc": 5, "span": 1}
    with pytest.raises(ValueError):
        validate_trace_record(record)
    for field, value in (("ts", "yesterday"), ("ms", "slow")):
        record = _record(0)
        record[field] = value
        with pytest.raises(ValueError, match=field):
            validate_trace_record(record)
    for span in (
            {"name": "", "id": 1, "parent": None, "duration_ms": 1.0},
            {"name": "x", "id": "oops", "parent": None, "duration_ms": 1.0},
            {"name": "x", "id": True, "parent": None, "duration_ms": 1.0},
            {"name": "x", "id": 2, "parent": "1", "duration_ms": 1.0},
            {"name": "x", "id": 2, "parent": None, "duration_ms": -1.0},
            {"name": "x", "id": 2, "parent": None}):
        with pytest.raises(ValueError, match="span"):
            validate_trace_record(_record(0, spans=[span]))


def _broken_store(tmp_path):
    """One good record, then one record broken each way the viewer used
    to crash on: a string ``ts`` and a non-int span id."""
    store = TraceStore(tmp_path / "traces")
    assert store.append(_record(0, trace="good"))
    bad_ts = _record(1, trace="bad-ts")
    bad_ts["ts"] = "yesterday"
    bad_id = _record(2, trace="bad-id",
                     spans=[{"name": "root", "id": "oops", "parent": None,
                             "duration_ms": 1.0}])
    segment = next((tmp_path / "traces").glob("seg-*.jsonl"))
    with open(segment, "a") as f:
        for bad in (bad_ts, bad_id):
            f.write(json.dumps(bad) + "\n")
    return str(tmp_path / "traces")


@pytest.mark.parametrize("argv,needle", [
    (["ls"], "good"),
    (["show", "good"], "root"),
    (["top"], "root"),
])
def test_trace_cli_survives_malformed_records(tmp_path, capsys, argv,
                                              needle):
    from repro.cli import main

    store = _broken_store(tmp_path)
    assert main(["trace"] + argv + ["--store", store]) == 0
    out = capsys.readouterr().out
    assert needle in out
    assert "bad-ts" not in out and "bad-id" not in out
    assert metrics.registry().counter(
        "obs.trace.invalid_skipped").value == 2


def test_a_trace_flag_file_opens_as_a_one_segment_store(tmp_path):
    path = tmp_path / "run.jsonl"
    path.write_text(jsonl.encode(_record(0, trace="batch")) + "\n")
    store = TraceStore(path)
    assert [r["trace"] for r in store.records()] == ["batch"]
    assert store.stats()["segments"] == 1
