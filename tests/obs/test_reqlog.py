"""The request journal: a bounded in-memory ring of finished requests."""

import json

import pytest

from repro.obs import core as obs
from repro.obs import jsonl, metrics
from repro.obs.reqlog import RequestJournal, RequestRecord
from repro.obs.tracestore import make_record as make_trace_record


@pytest.fixture(autouse=True)
def _clean_registry():
    metrics.registry().reset()
    yield
    metrics.registry().reset()


def make_record(op="alias", trace="t-1", ms=1.5, ok=True, error=None,
                cache="hit", ts=1000.0):
    return RequestRecord(op=op, trace_id=trace, unit="smoke", ms=ms,
                        ok=ok, error_kind=error, cache=cache, ts=ts)


def test_record_json_carries_the_journal_fields():
    assert make_record().to_json() == {
        "op": "alias", "trace": "t-1", "unit": "smoke", "ms": 1.5,
        "ok": True, "error": None, "cache": "hit", "ts": 1000.0}


def access_line(record, **overrides):
    """The line a slow request leaves on disk: the daemon's unsampled,
    over-SLO trace record, carrying the journal's cache and error kind."""
    scope = obs.trace_scope(record.trace_id)
    with scope:
        obs.trace_note("cache", record.cache)
        if record.error_kind is not None:
            obs.trace_note("error", record.error_kind)
    line = make_trace_record(scope, origin="daemon", op=record.op,
                             ms=record.ms, ok=record.ok, unit=record.unit)
    line.update(overrides)
    return line


def test_validate_access_line_rejects_bad_lines(tmp_path):
    record = make_record(ok=False, error="compile", cache="miss")
    line = access_line(record)
    jsonl.validate(line)
    assert (line["trace"], line["op"], line["unit"], line["ms"],
            line["ok"]) == (record.trace_id, record.op, record.unit,
                            record.ms, record.ok)
    assert line["notes"] == {"cache": "miss", "error": "compile"}
    assert line["spans"] == []  # unsampled: no span tree was collected
    with pytest.raises(ValueError, match="not an object"):
        jsonl.validate([1, 2], jsonl.TRACE_RECORD)
    with pytest.raises(ValueError, match="missing key"):
        jsonl.validate({"kind": jsonl.TRACE_RECORD, "schema": 1},
                       jsonl.TRACE_RECORD)
    with pytest.raises(ValueError, match="trace"):
        jsonl.validate(access_line(record, trace=""))
    with pytest.raises(ValueError, match="ok"):
        jsonl.validate(access_line(record, ok="no"))
    # A torn line is skipped and counted; an invalid one is handed back.
    path = tmp_path / "access.jsonl"
    path.write_text("{torn\n" + json.dumps(access_line(record, ok="no"))
                    + "\n" + json.dumps(line) + "\n")
    result = jsonl.read(str(path), jsonl.TRACE_RECORD)
    assert len(result.records) == 1 and result.torn == 1
    assert [lineno for lineno, _obj, _err in result.invalid] == [2]
    assert metrics.registry().counter("obs.trace.torn_skipped").value == 1


def test_journal_is_a_bounded_newest_first_ring():
    journal = RequestJournal(size=3)
    for i in range(5):
        journal.record(make_record(trace="t-{}".format(i)))
    assert journal.total == 5  # evictions still counted
    recent = journal.recent()
    assert [r.trace_id for r in recent] == ["t-4", "t-3", "t-2"]
    assert [r.trace_id for r in journal.recent(limit=1)] == ["t-4"]


def test_journal_snapshot_payload():
    journal = RequestJournal(size=8)
    journal.record(make_record(ok=False, error="compile", cache=None))
    snap = journal.snapshot()
    assert snap["total"] == 1
    (entry,) = snap["requests"]
    assert entry["error"] == "compile"
    assert entry["ok"] is False
    assert entry["cache"] is None
    assert entry["trace"] == "t-1"
