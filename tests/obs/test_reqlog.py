"""Request journal ring + sampled slow-request access log."""

import json

import pytest

from repro.obs import jsonl, metrics
from repro.obs.jsonl import ACCESS_LOG, KINDS
from repro.obs.reqlog import AccessLog, RequestJournal, RequestRecord

#: Required keys of one access-log JSONL line.
ACCESS_LOG_KEYS = ("kind", "schema") + KINDS[ACCESS_LOG].keys


@pytest.fixture(autouse=True)
def _clean_registry():
    metrics.registry().reset()
    yield
    metrics.registry().reset()


def make_record(op="alias", trace="t-1", ms=1.5, ok=True, error=None,
                cache="hit", ts=1000.0):
    return RequestRecord(op=op, trace_id=trace, unit="smoke", ms=ms,
                        ok=ok, error_kind=error, cache=cache, ts=ts)


def test_record_json_schema_matches_access_log_keys(tmp_path):
    path = tmp_path / "access.jsonl"
    assert AccessLog(str(path), slow_ms=0.0).maybe_log(make_record())
    (obj,) = jsonl.read(str(path), ACCESS_LOG).records
    assert set(obj) == set(ACCESS_LOG_KEYS)
    assert set(make_record().to_json()) | {"slow", "kind", "schema"} == \
        set(ACCESS_LOG_KEYS)


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


def test_access_log_skips_fast_requests(tmp_path):
    log = AccessLog(str(tmp_path / "access.jsonl"), slow_ms=10.0)
    assert log.maybe_log(make_record(ms=9.99)) is False
    assert not (tmp_path / "access.jsonl").exists()


def test_access_log_writes_validated_slow_lines(tmp_path):
    path = tmp_path / "access.jsonl"
    log = AccessLog(str(path), slow_ms=10.0)
    assert log.maybe_log(make_record(ms=25.0)) is True
    result = jsonl.read(str(path), ACCESS_LOG)
    assert (result.invalid, result.torn) == ([], 0)
    (obj,) = result.records
    assert obj["slow"] is True
    assert obj["ms"] == 25.0
    assert obj["trace"] == "t-1"
    assert metrics.registry().counter("serve.accesslog.lines").value == 1


def test_access_log_sampling_is_deterministic_every_nth(tmp_path):
    path = tmp_path / "access.jsonl"
    log = AccessLog(str(path), slow_ms=0.0, sample=3)
    written = [log.maybe_log(make_record(trace="t-{}".format(i)))
               for i in range(7)]
    assert written == [True, False, False, True, False, False, True]
    traces = [json.loads(line)["trace"]
              for line in path.read_text().splitlines()]
    assert traces == ["t-0", "t-3", "t-6"]
    assert metrics.registry().counter(
        "serve.accesslog.sampled_out").value == 4


def test_access_log_write_failure_never_raises(tmp_path):
    # Pointing the log at a directory makes every append an OSError.
    log = AccessLog(str(tmp_path), slow_ms=0.0)
    assert log.maybe_log(make_record()) is False
    assert metrics.registry().counter("serve.accesslog.errors").value == 1


def test_validate_access_line_rejects_bad_lines(tmp_path):
    def line(**overrides):
        obj = dict(make_record().to_json(), slow=True, kind=ACCESS_LOG,
                   schema=1)
        obj.update(overrides)
        return obj

    jsonl.validate(line(), ACCESS_LOG)
    with pytest.raises(ValueError, match="not an object"):
        jsonl.validate([1, 2], ACCESS_LOG)
    with pytest.raises(ValueError, match="missing key"):
        jsonl.validate({"kind": ACCESS_LOG, "schema": 1}, ACCESS_LOG)
    with pytest.raises(ValueError, match="trace"):
        jsonl.validate(line(trace=""), ACCESS_LOG)
    with pytest.raises(ValueError, match="slow"):
        jsonl.validate(line(slow=False), ACCESS_LOG)
    # A torn line is skipped and counted; an invalid one is handed back.
    path = tmp_path / "access.jsonl"
    path.write_text("{torn\n" + json.dumps(line(slow=False)) + "\n"
                    + json.dumps(line()) + "\n")
    result = jsonl.read(str(path), ACCESS_LOG)
    assert len(result.records) == 1 and result.torn == 1
    assert [lineno for lineno, _obj, _err in result.invalid] == [2]
    assert metrics.registry().counter(
        "serve.accesslog.torn_skipped").value == 1
