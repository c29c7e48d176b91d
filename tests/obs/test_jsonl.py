"""The one JSONL record layer: schema dispatch, the torn-append seam,
the reader's torn/invalid split, and the committed ledger."""

import json
import os

import pytest

from repro.obs import jsonl, metrics
from repro.obs.jsonl import ACCESS_LOG, BENCH_RUN, KINDS, TRACE_RECORD

ROOT = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir)


@pytest.fixture(autouse=True)
def fresh_registry():
    metrics.registry().reset()
    yield


def access_line(trace="t-1"):
    return {"kind": ACCESS_LOG, "schema": 1, "ts": 1.0, "trace": trace,
            "op": "alias", "unit": None, "ms": 12.0, "ok": True,
            "error": None, "cache": "hit", "slow": True}


def test_every_kind_declares_a_schema():
    assert set(KINDS) == {TRACE_RECORD, BENCH_RUN, ACCESS_LOG}
    for kind in KINDS.values():
        assert kind.version == 1 and kind.keys and kind.counter


def test_validate_dispatches_on_the_records_own_kind():
    jsonl.validate(access_line())
    with pytest.raises(ValueError, match="unknown record kind"):
        jsonl.validate(access_line(), BENCH_RUN)
    with pytest.raises(ValueError, match="unknown record kind"):
        jsonl.validate({"kind": "nope", "schema": 1})


def test_append_refuses_an_invalid_record(tmp_path):
    path = tmp_path / "log.jsonl"
    with pytest.raises(ValueError):
        jsonl.append(str(path), dict(access_line(), slow=False))
    assert not path.exists()


def test_torn_append_seam_matches_by_kind(tmp_path):
    from repro.qa import chaos

    path = str(tmp_path / "log.jsonl")
    plan = chaos.FaultPlan(rules=(
        chaos.FaultRule("jsonl.append", match={"kind": TRACE_RECORD}),))
    with chaos.armed(plan) as state:
        jsonl.append(path, access_line())  # another kind: never torn
    assert state.injected() == {}
    plan = chaos.FaultPlan(rules=(
        chaos.FaultRule("jsonl.append", times=1,
                        match={"kind": ACCESS_LOG}),))
    with chaos.armed(plan):
        jsonl.append(path, access_line("torn"))
        jsonl.append(path, access_line("whole"))
    registry = metrics.registry()
    assert registry.counter("serve.accesslog.torn_writes").value == 1
    result = jsonl.read(path, ACCESS_LOG)
    assert [r["trace"] for r in result.records] == ["t-1", "whole"]
    assert (result.torn, result.invalid) == (1, [])
    assert registry.counter("serve.accesslog.torn_skipped").value == 1


def test_read_hands_invalid_records_back(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text(json.dumps(access_line()) + "\n\n"
                    + json.dumps({"kind": ACCESS_LOG}) + "\n")
    result = jsonl.read(str(path), ACCESS_LOG)
    assert len(result.records) == 1
    ((lineno, obj, problem),) = result.invalid
    assert lineno == 3 and obj == {"kind": ACCESS_LOG}
    assert "schema" in problem


def test_committed_bench_ledger_is_all_valid_bench_runs():
    # BENCH_baseline.jsonl is what `make bench-gate` compares against:
    # every line must be a whole, valid bench_run record.
    path = os.path.join(ROOT, "BENCH_baseline.jsonl")
    if not os.path.exists(path):
        pytest.skip("no committed BENCH_baseline.jsonl")
    result = jsonl.read(path, BENCH_RUN)
    assert result.torn == 0
    assert result.invalid == []
    assert result.records
    with open(path) as handle:
        lines = [line for line in handle if line.strip()]
    assert len(result.records) == len(lines)
