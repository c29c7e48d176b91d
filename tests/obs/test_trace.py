"""The ``--trace FILE`` record: golden layout, writer/validator round trip."""

import json

import pytest

from repro.obs import core, jsonl, metrics
from repro.obs.jsonl import TRACE_RECORD, validate, validate_file
from repro.obs.tracestore import batch_record


@pytest.fixture
def recorded():
    """A private recorder+registry holding one tiny recorded run."""
    recorder = core.Recorder()
    registry = metrics.MetricsRegistry()
    recorder.enable()
    with recorder.span("compile", unit="t.m3"):
        with recorder.span("lang.parse", bytes=12):
            pass
    registry.counter("alias.cache.hits", analysis="TypeDecl").inc(5)
    registry.gauge("smtyperefs.groups").set(3)
    registry.histogram("steensgaard.group.size", buckets=(1.0, 2.0)).observe(2)
    return recorder, registry


def make(recorded, **overrides):
    recorder, registry = recorded
    record = batch_record("alias", 12.5, True, recorder, registry)
    record.update(overrides)
    return record


def write(path, *records):
    path.write_text("".join(jsonl.encode(r) + "\n" for r in records))
    return str(path)


def test_golden_line_layout(recorded):
    """Pin the exact key sets; a layout change must bump the schema."""
    record = make(recorded)
    assert set(record) == {"kind", "schema", "trace", "proc", "origin",
                           "op", "unit", "ms", "ok", "ts", "parent",
                           "spans", "notes", "dropped", "metrics"}
    assert (record["kind"], record["schema"]) == (TRACE_RECORD, 1)
    assert (record["origin"], record["op"], record["ok"]) == \
        ("cli", "alias", True)
    root, child = record["spans"]
    assert set(root) == {"kind", "name", "id", "parent", "depth",
                         "start_ms", "duration_ms", "thread", "attrs",
                         "error"}
    assert root["name"] == "compile" and root["parent"] is None
    assert child["name"] == "lang.parse" and child["parent"] == root["id"]
    assert child["attrs"] == {"bytes": 12}
    counter, gauge, histogram = record["metrics"]
    assert [m["kind"] for m in record["metrics"]] == [
        "counter", "gauge", "histogram"]
    assert set(counter) == {"kind", "name", "labels", "value"}
    assert counter["value"] == 5
    assert gauge["value"] == 3
    assert set(histogram) == {"kind", "name", "labels", "buckets",
                              "bucket_counts", "count", "sum", "min", "max"}
    assert histogram["bucket_counts"] == [0, 1, 0]


def test_every_line_is_json_serialisable(recorded):
    validate(json.loads(jsonl.encode(make(recorded))), TRACE_RECORD)


def test_write_and_validate_file_round_trip(recorded, tmp_path):
    path = write(tmp_path / "trace.jsonl", make(recorded))
    assert validate_file(path) == 1


def test_validator_rejects_bad_schema_version(recorded):
    with pytest.raises(ValueError, match="schema"):
        validate(make(recorded, schema=99), TRACE_RECORD)


def test_validator_rejects_unknown_kind(recorded):
    with pytest.raises(ValueError, match="kind"):
        validate(make(recorded, kind="event"))


def test_validator_rejects_missing_keys(recorded):
    record = make(recorded)
    del record["spans"]
    with pytest.raises(ValueError, match="missing key"):
        validate(record, TRACE_RECORD)


def test_validator_rejects_bad_metric_entries(recorded):
    record = make(recorded)
    record["metrics"][2]["bucket_counts"] = [1]
    with pytest.raises(ValueError, match="bucket_counts"):
        validate(record, TRACE_RECORD)
    record = make(recorded)
    record["metrics"][0]["value"] = "many"
    with pytest.raises(ValueError, match="numeric"):
        validate(record, TRACE_RECORD)


def test_validator_rejects_empty_trace(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("\n")
    with pytest.raises(ValueError, match="no valid record"):
        validate_file(str(path))


def test_trace_cli_main(recorded, tmp_path, capsys):
    good = write(tmp_path / "good.jsonl", make(recorded))
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{not json\n")
    assert jsonl.main([good]) == 0
    assert "ok (1 records: trace_record; 0 torn" in capsys.readouterr().out
    assert jsonl.main([good, str(bad)]) == 1
    captured = capsys.readouterr()
    assert "INVALID" in captured.err


# ----------------------------------------------------------------------
# Malformed trace *files* through the validator entry points


def test_validate_file_skips_truncated_jsonl(recorded, tmp_path, capsys):
    # A record chopped mid-object, as a killed writer leaves it, is a
    # torn line: skipped and reported, never fatal next to a good one.
    line = jsonl.encode(make(recorded))
    path = tmp_path / "trace.jsonl"
    path.write_text(line + "\n" + line[: len(line) // 2] + "\n")
    assert validate_file(str(path)) == 1
    assert jsonl.main([str(path)]) == 0
    assert "1 torn lines skipped" in capsys.readouterr().out


def test_validate_file_rejects_unknown_schema_version(recorded, tmp_path):
    record = make(recorded)
    record["schema"] += 1
    path = tmp_path / "trace.jsonl"
    path.write_text(json.dumps(record) + "\n")
    with pytest.raises(ValueError, match=r"trace\.jsonl:1: .*schema"):
        validate_file(str(path))


def test_trace_cli_reports_malformed_files(recorded, tmp_path, capsys):
    invalid = tmp_path / "invalid.jsonl"
    record = make(recorded)
    record["spans"][0]["id"] = "oops"
    invalid.write_text(json.dumps(record) + "\n")
    torn_only = tmp_path / "torn.jsonl"
    torn_only.write_text(jsonl.encode(make(recorded))[:40] + "\n")
    assert jsonl.main([str(invalid), str(torn_only)]) == 1
    err = capsys.readouterr().err
    assert err.count("INVALID") == 2
