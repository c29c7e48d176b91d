"""End-to-end `repro profile` / `--trace` through the CLI entry point."""

import pytest

from repro.cli import main
from repro.obs import core, log
from repro.obs.jsonl import read, validate_file

SOURCE = """
MODULE Tiny;
TYPE T = OBJECT f: T; END;
VAR t: T;
BEGIN
  t := NEW (T, f := NEW (T));
  IF t.f # NIL THEN t.f := NIL; END;
END Tiny.
"""


@pytest.fixture(autouse=True)
def clean_obs_state():
    yield
    core.disable()
    core.reset()
    log.set_level(log.NORMAL)


@pytest.fixture
def tiny(tmp_path):
    path = tmp_path / "tiny.m3"
    path.write_text(SOURCE)
    return str(path)


def test_profile_prints_tree_and_counters(tiny, capsys):
    assert main(["profile", tiny, "--check"]) == 0
    out = capsys.readouterr().out
    assert "profile" in out.splitlines()[0]
    assert "load" in out and "optimize" in out
    assert "lang.parse" in out
    assert "alias.cache" in out
    assert "100.0%" in out
    # The recorder must be switched off again afterwards.
    assert not core.enabled()


def test_profile_accepts_registry_benchmark_name(capsys):
    assert main(["profile", "slisp", "--top", "3"]) == 0
    out = capsys.readouterr().out
    assert "profile: slisp" in out
    assert "Top 3 metrics" in out


def test_profile_run_flag_adds_execute_phase(tiny, capsys):
    assert main(["profile", tiny, "--run"]) == 0
    assert "execute" in capsys.readouterr().out


def test_trace_flag_writes_valid_jsonl(tiny, tmp_path, capsys):
    trace = str(tmp_path / "out.jsonl")
    assert main(["alias", tiny, "--trace", trace]) == 0
    assert validate_file(trace) == 1
    (record,) = read(trace).records
    assert record["op"] == "alias" and record["ok"] is True
    assert record["spans"] and record["metrics"]
    assert "trace: wrote" in capsys.readouterr().err
    assert not core.enabled()


def test_trace_flag_file_opens_in_the_trace_viewer(tiny, tmp_path, capsys):
    trace = str(tmp_path / "out.jsonl")
    assert main(["-q", "profile", tiny, "--trace", trace]) == 0
    (record,) = read(trace).records
    capsys.readouterr()
    assert main(["trace", "show", record["trace"], "--store", trace]) == 0
    out = capsys.readouterr().out
    assert out.startswith("trace {}  (1 records, 1 processes: cli)".format(
        record["trace"]))
    assert "lang.parse" in out and "100.0%" in out


def test_trace_flag_flushes_even_on_failure(tmp_path, capsys):
    trace = str(tmp_path / "out.jsonl")
    missing = str(tmp_path / "missing.m3")
    assert main(["alias", missing, "--trace", trace]) == 1
    # The bulkhead still flushed a (span-less) trace record.
    assert validate_file(trace) >= 1
    assert read(trace).records[0]["ok"] is False


def test_quiet_flag_suppresses_trace_note(tiny, tmp_path, capsys):
    trace = str(tmp_path / "out.jsonl")
    assert main(["-q", "alias", tiny, "--trace", trace]) == 0
    assert "trace: wrote" not in capsys.readouterr().err
    assert validate_file(trace) == 1


def test_profile_limit_flag_adds_limit_phases(tiny, capsys):
    assert main(["profile", tiny, "--run", "--limit", "--check"]) == 0
    out = capsys.readouterr().out
    assert "execute" in out and "run.interp" in out
    assert "limit.replay" in out and "limit.classify" in out


def test_profile_check_tol_is_configurable(tiny, capsys):
    # An absurdly generous tolerance must always pass ...
    assert main(["profile", tiny, "--check", "--check-tol", "10.0"]) == 0
    # ... and the flag reaches tree_check: a *negative* tolerance makes
    # every parent/child sum violate the bound.
    with pytest.raises(AssertionError):
        main(["profile", tiny, "--check", "--check-tol", "-1.0"])
