"""Benchmark-run ledger: record collection, schema validation, selection."""

import json

import pytest

from repro.obs import core, jsonl, metrics
from repro.obs.history import (
    HISTORY_SCHEMA_VERSION,
    RECORD_KIND,
    SUITE_BUCKET,
    collect_record,
    counter_values,
    host_fingerprint,
    phase_seconds,
    read_history,
    resolve_selection,
    select_records,
)
from repro.obs.jsonl import HOST_KEYS, validate_file
from repro.obs.jsonl import append as append_record


def validate_record(obj):
    jsonl.validate(obj, RECORD_KIND)


#: Keys every ledger record must carry.
REQUIRED_KEYS = ("schema", "kind") + jsonl.KINDS[RECORD_KIND].keys


@pytest.fixture
def recorded():
    """A private recorder+registry with two attributed benchmark runs."""
    recorder = core.Recorder()
    registry = metrics.MetricsRegistry()
    recorder.enable()
    with recorder.span("bench.run", program="write-pickle"):
        with recorder.span("run.interp", module="WritePickle"):
            pass
        with recorder.span("run.cachesim"):
            pass
    with recorder.span("bench.run", program="write-pickle"):
        pass
    with recorder.span("quick.table5"):
        pass
    registry.counter("run.interp.instructions").inc(100)
    registry.counter("limit.category", category="Rest").inc(3)
    registry.histogram("steensgaard.group.size", buckets=(1.0,)).observe(2)
    return recorder, registry


def make_record(recorded, **overrides):
    recorder, registry = recorded
    record = collect_record("bench", recorder=recorder, registry=registry,
                            sha="a" * 40, timestamp="2026-08-05T00:00:00Z")
    record.update(overrides)
    return record


# ----------------------------------------------------------------------
# Phase bucketing and counter flattening


def test_phase_seconds_buckets_by_nearest_program(recorded):
    recorder, _ = recorded
    phases = phase_seconds(recorder)
    # Child spans without their own ``program`` attr inherit the
    # ancestor's benchmark bucket; unattributed roots land in (suite).
    assert set(phases) == {"write-pickle", SUITE_BUCKET}
    assert set(phases["write-pickle"]) == {
        "bench.run", "run.interp", "run.cachesim"}
    assert set(phases[SUITE_BUCKET]) == {"quick.table5"}


def test_phase_seconds_sums_repeated_spans(recorded):
    recorder, _ = recorded
    spans = [s for s in recorder.spans() if s.name == "bench.run"]
    assert len(spans) == 2
    phases = phase_seconds(recorder)
    total = sum(s.duration for s in spans)
    assert phases["write-pickle"]["bench.run"] == pytest.approx(
        total, abs=1e-6)


def test_counter_values_flatten_labels_and_histograms(recorded):
    _, registry = recorded
    values = counter_values(registry)
    assert values["run.interp.instructions"] == 100
    assert values["limit.category{category=Rest}"] == 3
    assert values["steensgaard.group.size:count"] == 1


# ----------------------------------------------------------------------
# Record collection and the append/read round trip


def test_collect_record_layout(recorded):
    record = make_record(recorded)
    assert set(REQUIRED_KEYS) <= set(record)
    assert record["schema"] == HISTORY_SCHEMA_VERSION
    assert record["kind"] == RECORD_KIND
    assert record["git_sha"] == "a" * 40
    assert set(HOST_KEYS) <= set(record["host"])
    validate_record(record)


def test_collect_record_merges_extra_phases(recorded):
    recorder, registry = recorded
    record = collect_record(
        "bench-quick", recorder=recorder, registry=registry,
        extra_phases={"m3cg": {"quick.query.TypeDecl": 0.5},
                      SUITE_BUCKET: {"quick.table5": 0.25}})
    assert record["phases"]["m3cg"]["quick.query.TypeDecl"] == 0.5
    # Merged series add to span-derived ones rather than replacing them.
    assert record["phases"][SUITE_BUCKET]["quick.table5"] >= 0.25


def test_host_fingerprint_carries_required_keys():
    host = host_fingerprint()
    for key in HOST_KEYS:
        assert key in host
    assert host["cpu_count"] >= 1


def test_append_and_read_round_trip(recorded, tmp_path):
    path = str(tmp_path / "hist.jsonl")
    append_record(path, make_record(recorded))
    append_record(path, make_record(recorded, git_sha="b" * 40))
    records = read_history(path)
    assert len(records) == 2
    assert validate_file(path) == 2
    assert records[1]["git_sha"] == "b" * 40


def test_append_refuses_invalid_record(recorded, tmp_path):
    path = str(tmp_path / "hist.jsonl")
    with pytest.raises(ValueError, match="schema"):
        append_record(path, make_record(recorded, schema=99))
    assert not (tmp_path / "hist.jsonl").exists()


# ----------------------------------------------------------------------
# Validation errors


@pytest.mark.parametrize("mutate,match", [
    ({"schema": 99}, "unknown schema version"),
    ({"kind": "trace"}, "unknown record kind"),
    ({"label": ""}, "label"),
    ({"git_sha": 5}, "git_sha"),
    ({"timestamp_utc": "yesterday"}, "timestamp_utc"),
    ({"host": []}, "host"),
    ({"host": {"python": "3"}}, "host fingerprint missing"),
    ({"phases": {"b": {"p": -1.0}}}, "non-negative"),
    ({"phases": {"b": [1.0]}}, "must be an object"),
    ({"counters": {"c": "many"}}, "numeric"),
])
def test_validate_record_rejects(recorded, mutate, match):
    record = make_record(recorded, **mutate)
    with pytest.raises(ValueError, match=match):
        validate_record(record)


def test_validate_record_rejects_missing_key(recorded):
    record = make_record(recorded)
    del record["phases"]
    with pytest.raises(ValueError, match="missing key"):
        validate_record(record)


def test_validate_record_rejects_non_object():
    with pytest.raises(ValueError, match="not an object"):
        validate_record([1, 2])


def test_read_history_skips_torn_lines_with_warning(recorded, tmp_path):
    # A line that is not JSON is a *torn append* — the artifact of a
    # writer dying mid-write — and must never wedge compare/gate: it is
    # skipped, warned about, and counted.
    metrics.registry().reset()
    path = str(tmp_path / "hist.jsonl")
    append_record(path, make_record(recorded))
    with open(path, "a") as f:
        f.write("{truncated\n")
    append_record(path, make_record(recorded))
    records = read_history(path)
    assert len(records) == 2
    assert metrics.registry().counter("obs.history.torn_skipped").value == 1


def test_read_history_torn_warning_reports_path_and_line(recorded, tmp_path,
                                                         capsys):
    path = str(tmp_path / "hist.jsonl")
    append_record(path, make_record(recorded))
    with open(path, "a") as f:
        f.write("{truncated\n")
    assert len(read_history(path)) == 1
    assert "hist.jsonl:2: skipping torn bench_run line" in \
        capsys.readouterr().err


def test_read_history_still_rejects_schema_corruption(recorded, tmp_path):
    # A line that *decodes* but fails validation is corruption, not
    # tearing: silently dropping it would hide real damage.
    path = str(tmp_path / "hist.jsonl")
    append_record(path, make_record(recorded))
    with open(path, "a") as f:
        f.write(json.dumps({"schema": 999}) + "\n")
    with pytest.raises(ValueError, match=r"hist\.jsonl:2: "):
        read_history(path)


def test_append_record_torn_by_chaos_is_skipped_on_read(recorded, tmp_path):
    from repro.qa import chaos

    metrics.registry().reset()
    path = str(tmp_path / "hist.jsonl")
    plan = chaos.FaultPlan(rules=(
        chaos.FaultRule("jsonl.append", after=1, times=1,
                        match={"kind": "bench_run"}),))
    with chaos.armed(plan):
        append_record(path, make_record(recorded))
        append_record(path, make_record(recorded))  # torn mid-line
        append_record(path, make_record(recorded))
    registry = metrics.registry()
    assert registry.counter("obs.history.torn_writes").value == 1
    assert len(read_history(path)) == 2
    assert registry.counter("obs.history.torn_skipped").value == 1
    assert validate_file(path) == 2


def test_read_history_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("\n\n")
    with pytest.raises(ValueError, match="empty history"):
        read_history(str(path))


# ----------------------------------------------------------------------
# Selection


def test_select_latest_takes_trailing_same_sha_run(recorded):
    records = [
        make_record(recorded, git_sha="a" * 40),
        make_record(recorded, git_sha="b" * 40),
        make_record(recorded, git_sha="b" * 40),
    ]
    chosen = select_records(records, "latest")
    assert len(chosen) == 2
    assert all(r["git_sha"] == "b" * 40 for r in chosen)


def test_select_by_sha_prefix(recorded):
    records = [make_record(recorded, git_sha="a" * 40),
               make_record(recorded, git_sha="b" * 40)]
    assert select_records(records, "aaaa") == [records[0]]
    with pytest.raises(ValueError, match="no history records match"):
        select_records(records, "ffff")


def test_resolve_selection_prefers_ledger_files(recorded, tmp_path):
    path = str(tmp_path / "base.jsonl")
    append_record(path, make_record(recorded, git_sha="c" * 40))
    chosen = resolve_selection(path, history_path=str(tmp_path / "none"))
    assert len(chosen) == 1 and chosen[0]["git_sha"] == "c" * 40


def test_resolve_selection_latest_from_history_file(recorded, tmp_path):
    path = str(tmp_path / "hist.jsonl")
    append_record(path, make_record(recorded))
    assert len(resolve_selection("latest", path)) == 1


# ----------------------------------------------------------------------
# The shared JSONL validator CLI over ledgers


def test_history_cli_ok_and_invalid(recorded, tmp_path, capsys):
    good = str(tmp_path / "good.jsonl")
    append_record(good, make_record(recorded))
    bad = str(tmp_path / "bad.jsonl")
    with open(bad, "w") as f:
        f.write(json.dumps({"schema": 99}) + "\n")
    missing = str(tmp_path / "missing.jsonl")
    assert jsonl.main([good]) == 0
    assert "ok (1 records: bench_run; 0 torn" in capsys.readouterr().out
    assert jsonl.main([good, bad, missing]) == 1
    captured = capsys.readouterr()
    assert "ok (1 records" in captured.out
    assert captured.err.count("INVALID") == 2
