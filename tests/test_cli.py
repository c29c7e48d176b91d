"""CLI tests (python -m repro)."""

import os
import subprocess
import sys

import pytest

from repro.cli import main

DEMO = """
MODULE CliDemo;
TYPE T = OBJECT n: INTEGER; END;
VAR t: T; x, i: INTEGER;
BEGIN
  t := NEW (T, n := 2);
  FOR i := 1 TO 5 DO
    x := x + t.n;
  END;
  PutInt (x);
END CliDemo.
"""

BROKEN = "MODULE Broken; BEGIN zap := 1; END Broken."


@pytest.fixture
def demo_file(tmp_path):
    path = tmp_path / "demo.m3"
    path.write_text(DEMO)
    return str(path)


def test_check(demo_file, capsys):
    assert main(["check", demo_file]) == 0
    out = capsys.readouterr().out
    assert "module CliDemo: OK" in out
    assert "procedures: 0" in out


def test_check_error(tmp_path, capsys):
    path = tmp_path / "broken.m3"
    path.write_text(BROKEN)
    assert main(["check", str(path)]) == 1
    assert "undeclared" in capsys.readouterr().err


def test_check_error_renders_caret(tmp_path, capsys):
    path = tmp_path / "broken.m3"
    path.write_text("MODULE Broken;\nBEGIN\n  zap := 1;\nEND Broken.\n")
    assert main(["check", str(path)]) == 1
    err = capsys.readouterr().err
    assert "zap := 1;" in err  # the offending source line ...
    assert "^" in err          # ... with a caret under the offender


def test_check_digit_int_rejects_is_one_caret_diagnostic(tmp_path, capsys):
    # '²'.isdigit() is true but int('²') raises: a lex error, not a crash.
    path = tmp_path / "sup.m3"
    path.write_text("MODULE Sup;\nVAR x: INTEGER;\nBEGIN\n  x := \u00b2;\n"
                    "END Sup.\n", encoding="utf-8")
    assert main(["check", str(path)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines() == [
        "error: {}:4:8: malformed number".format(path),
        "    x := \u00b2;",
        "         ^",
    ]


def test_missing_file(capsys):
    assert main(["check", "/nonexistent/x.m3"]) == 1
    assert "error" in capsys.readouterr().err


TRAPS = {
    "nil": ("VAR t: T;", "PutInt (t.n);", "NIL dereference"),
    "textchar": ("VAR s: TEXT;", 's := "ab"; PutChar (TextChar (s, 5));',
                 "TextChar index 5 out of range"),
    "val": ("VAR i: INTEGER;", "i := -1; PutChar (VAL (i, CHAR));",
            "VAL (-1, CHAR) out of range"),
}


def _trap_file(tmp_path, kind):
    decl, body, _ = TRAPS[kind]
    path = tmp_path / "trap.m3"
    path.write_text("MODULE Trap;\nTYPE T = OBJECT n: INTEGER; END;\n{}\n"
                    "BEGIN\n  PutText (\"x\");\n  {}\nEND Trap.\n".format(decl, body))
    return str(path)


@pytest.mark.parametrize("kind", sorted(TRAPS))
def test_run_trap_is_one_error_line(tmp_path, capsys, kind):
    assert main(["run", _trap_file(tmp_path, kind)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: runtime error: ")
    assert TRAPS[kind][2] in err[0]


def test_run_trap_prints_no_traceback(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src")]
        + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "run", _trap_file(tmp_path, "nil")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: runtime error: NIL dereference")


def test_run(demo_file, capsys):
    assert main(["run", demo_file]) == 0
    assert capsys.readouterr().out.strip() == "10"


def test_run_with_stats_and_opt(demo_file, capsys):
    assert main(["run", demo_file, "--stats", "--analysis", "SMFieldTypeRefs"]) == 0
    captured = capsys.readouterr()
    assert captured.out.strip() == "10"
    assert "cycles" in captured.err


def test_run_optimized_matches_plain(demo_file, capsys):
    main(["run", demo_file])
    plain = capsys.readouterr().out
    main(["run", demo_file, "--analysis", "TypeDecl", "--minv-inline",
          "--copyprop", "--pre"])
    assert capsys.readouterr().out == plain


def test_ir_dump(demo_file, capsys):
    assert main(["ir", demo_file]) == 0
    out = capsys.readouterr().out
    assert "proc <main>" in out
    assert "ap=t.n" in out


def test_ir_dump_optimized_reports_rle(demo_file, capsys):
    assert main(["ir", demo_file, "--analysis", "SMFieldTypeRefs"]) == 0
    out = capsys.readouterr().out
    assert "RLE:" in out


def test_alias_report(demo_file, capsys):
    assert main(["alias", demo_file]) == 0
    out = capsys.readouterr().out
    for name in ("TypeDecl", "FieldTypeDecl", "SMFieldTypeRefs"):
        assert name in out


def test_limit_report(demo_file, capsys):
    assert main(["limit", demo_file]) == 0
    out = capsys.readouterr().out
    assert "redundant (original)" in out
    assert "Encapsulated" in out


def test_bench_single(capsys):
    assert main(["bench", "write-pickle", "--no-history"]) == 0
    out = capsys.readouterr().out
    assert "write-pickle" in out


# ----------------------------------------------------------------------
# --trace on the dynamic commands


def _trace_names(path):
    """Span and metric names of the one record a --trace run writes."""
    from repro.obs.jsonl import read

    (record,) = read(path).records
    return [e["name"] for e in record["spans"] + record["metrics"]]


def test_run_trace_writes_runtime_spans(demo_file, tmp_path):
    from repro.obs.jsonl import validate_file

    trace = str(tmp_path / "run.jsonl")
    assert main(["-q", "run", demo_file, "--trace", trace]) == 0
    assert validate_file(trace) == 1
    names = _trace_names(trace)
    assert "run.interp" in names and "run.cachesim" in names
    assert "run.interp.instructions" in names


def test_limit_trace_writes_study_spans(demo_file, tmp_path):
    from repro.obs.jsonl import validate_file

    trace = str(tmp_path / "limit.jsonl")
    assert main(["-q", "limit", demo_file, "--trace", trace]) == 0
    assert validate_file(trace) == 1
    names = _trace_names(trace)
    assert "limit.replay" in names and "limit.classify" in names
    assert "limit.loads.total" in names


def test_run_trace_flushes_on_failure(tmp_path):
    from repro.obs.jsonl import validate_file

    trace = str(tmp_path / "run.jsonl")
    broken = tmp_path / "broken.m3"
    broken.write_text(BROKEN)
    assert main(["-q", "run", str(broken), "--trace", trace]) == 1
    # The bulkhead still flushed a schema-valid (partial) trace.
    assert validate_file(trace) == 1


# ----------------------------------------------------------------------
# Benchmark ledger, compare and gate


def _ledger_record(seconds, sha):
    """A minimal, schema-valid record for one write-pickle observation."""
    return {
        "schema": 1, "kind": "bench_run", "tool": "repro", "label": "bench",
        "git_sha": sha, "timestamp_utc": "2026-08-05T00:00:00Z",
        "host": {"python": "3", "platform": "linux", "machine": "x86_64",
                 "cpu_count": 4},
        "phases": {"write-pickle": {"bench.run": seconds}},
        "counters": {},
    }


def _write_ledger(path, seconds, sha="a" * 40):
    from repro.obs import jsonl

    jsonl.append(str(path), _ledger_record(seconds, sha))
    return str(path)


def test_bench_appends_history_record(tmp_path, capsys):
    from repro.obs import history

    hist = str(tmp_path / "hist.jsonl")
    assert main(["bench", "write-pickle", "--history", hist]) == 0
    [record] = history.read_history(hist)
    assert record["label"] == "bench"
    # Span-derived phases carry both the driver and the runtime spans,
    # bucketed under the benchmark's name.
    phases = record["phases"]["write-pickle"]
    assert "bench.run" in phases and "run.interp" in phases
    assert record["counters"]["run.interp.instructions"] > 0
    assert "history: appended" in capsys.readouterr().err
    # The JSONL validator accepts what the CLI wrote.
    from repro.obs import jsonl

    assert jsonl.main([hist]) == 0


def test_bench_compare_detects_doctored_regression(tmp_path, capsys):
    old = _write_ledger(tmp_path / "old.jsonl", 0.010)
    new = _write_ledger(tmp_path / "new.jsonl", 0.050, sha="b" * 40)
    md = tmp_path / "report.md"
    assert main(["bench", "compare", old, new, "--md", str(md)]) == 1
    out = capsys.readouterr().out
    assert "REGRESSION: write-pickle/bench.run" in out
    assert "**REGRESSION**" in md.read_text()


def test_bench_compare_identical_passes(tmp_path, capsys):
    old = _write_ledger(tmp_path / "old.jsonl", 0.010)
    new = _write_ledger(tmp_path / "new.jsonl", 0.011, sha="b" * 40)
    assert main(["bench", "compare", old, new]) == 0
    assert "0 regressed" in capsys.readouterr().out


def test_bench_compare_usage_errors(tmp_path, capsys):
    assert main(["bench", "compare", "only-one"]) == 2
    missing = str(tmp_path / "no-such.jsonl")
    old = _write_ledger(tmp_path / "old.jsonl", 0.010)
    assert main(["bench", "compare", old, missing,
                 "--history", missing]) == 2
    assert "bench compare:" in capsys.readouterr().err


def test_bench_gate_fires_on_doctored_baseline(tmp_path, capsys):
    # A baseline claiming write-pickle ran in 1ms: any honest
    # measurement regresses far beyond tolerance, so the gate must
    # exit nonzero and name the series.
    baseline = _write_ledger(tmp_path / "base.jsonl", 0.001)
    exit_code = main(["bench", "gate", "--baseline", baseline,
                      "--only", "write-pickle", "--no-history"])
    assert exit_code == 1
    captured = capsys.readouterr()
    assert "REGRESSION: write-pickle/bench.run" in captured.out
    assert "regression(s) beyond tolerance" in captured.err


def test_bench_gate_clean_run_passes(tmp_path, capsys):
    # Measure HEAD once to produce the baseline, then gate a second
    # measurement against it with a generous tolerance: back-to-back
    # runs of the same code must pass.
    hist = str(tmp_path / "hist.jsonl")
    assert main(["bench", "write-pickle", "--history", hist]) == 0
    exit_code = main(["bench", "gate", "--baseline", "latest",
                      "--history", hist, "--only", "write-pickle",
                      "--no-history", "--tol", "20.0"])
    assert exit_code == 0
    assert "gate: ok" in capsys.readouterr().out


def test_bench_gate_requires_baseline(capsys):
    assert main(["bench", "gate"]) == 2
    assert "--baseline" in capsys.readouterr().err


def test_bench_rejects_extra_positionals(capsys):
    assert main(["bench", "write-pickle", "slisp"]) == 2


def test_tables_selected(capsys):
    assert main(["tables", "table6"]) == 0
    out = capsys.readouterr().out
    assert "Table 6" in out


def test_tables_unknown(capsys):
    assert main(["tables", "tableX"]) == 2


# ----------------------------------------------------------------------
# Fault isolation and signal/pipe behaviour


GOOD_DIR_PROGRAM = """
MODULE DirGood;
TYPE T = OBJECT n: INTEGER; next: T; END;
VAR t: T; i, sum: INTEGER;
BEGIN
  t := NEW (T, n := 1);
  t.next := NEW (T, n := 2);
  FOR i := 1 TO 3 DO
    sum := sum + t.next.n;
  END;
  PutInt (sum);
END DirGood.
"""


@pytest.fixture
def program_dir(tmp_path):
    directory = tmp_path / "programs"
    directory.mkdir()
    (directory / "dirgood.m3").write_text(GOOD_DIR_PROGRAM)
    (directory / "dirbad.m3").write_text(BROKEN)
    return directory


def test_tables_over_directory_isolates_broken_input(program_dir, capsys):
    import json

    exit_code = main(["tables", "table4", "table5",
                      "--programs", str(program_dir)])
    assert exit_code == 1  # aggregate failure is visible in the exit code
    captured = capsys.readouterr()
    # Tables for the good program were still produced ...
    assert "Table 4" in captured.out and "Table 5" in captured.out
    assert "dirgood" in captured.out
    # ... and the broken one became a structured failure entry.
    assert "--- failures ---" in captured.err
    payload = captured.err.split("--- failures ---", 1)[1]
    [entry] = json.loads(payload)
    assert entry["name"] == "dirbad"
    assert entry["phase"] == "compile"
    assert "undeclared" in entry["message"]


TRAPPING_DIR_PROGRAM = """
MODULE DirTrap;
TYPE T = OBJECT n: INTEGER; END;
VAR t: T; x: INTEGER;
BEGIN
  x := t.n;
END DirTrap.
"""


def test_tables_over_directory_isolates_trapping_program(program_dir, capsys):
    import json

    (program_dir / "dirbad.m3").unlink()
    (program_dir / "dirtrap.m3").write_text(TRAPPING_DIR_PROGRAM)
    exit_code = main(["tables", "table4", "figure9",
                      "--programs", str(program_dir)])
    assert exit_code == 1
    captured = capsys.readouterr()
    # dirgood's rows survive in both tables ...
    table4, figure9 = captured.out.split("Figure 9")
    assert "Table 4" in table4 and "dirgood" in table4
    assert "dirgood" in figure9
    assert "dirtrap" not in captured.out
    # ... and each failure entry names the program and the artifact.
    payload = captured.err.split("--- failures ---", 1)[1]
    entries = json.loads(payload)
    assert [(e["name"], e["phase"]) for e in entries] == [
        ("dirtrap", "table4"), ("dirtrap", "figure9")]
    assert all("NIL dereference" in e["message"] for e in entries)


def test_tables_over_directory_all_good_exits_zero(program_dir, capsys):
    (program_dir / "dirbad.m3").unlink()
    assert main(["tables", "table4", "--programs", str(program_dir)]) == 0
    captured = capsys.readouterr()
    assert "dirgood" in captured.out
    assert "failures" not in captured.err


def test_fuzz_command_clean(capsys):
    assert main(["fuzz", "--count", "6", "--seed", "0", "--no-report"]) == 0
    out = capsys.readouterr().out
    assert "0 failures" in out


def test_fuzz_command_catches_injected_fault(tmp_path, monkeypatch, capsys):
    from repro.analysis.typehierarchy import FAULT_ENV

    monkeypatch.setenv(FAULT_ENV, "1")
    out_dir = tmp_path / "fuzz-out"
    exit_code = main(["fuzz", "--count", "3", "--seed", "0",
                      "--out", str(out_dir)])
    assert exit_code == 1
    out = capsys.readouterr().out
    assert "distinct failure shapes" in out
    assert (out_dir / "fuzz-report.json").exists()


def test_keyboard_interrupt_exits_130(monkeypatch, capsys):
    import repro.cli as cli

    def boom(args):
        raise KeyboardInterrupt

    monkeypatch.setitem(cli.__dict__, "cmd_check", boom)
    parser_args = ["check", "whatever.m3"]
    # Rebuild the parser so the monkeypatched function is bound.
    monkeypatch.setattr(cli, "build_parser", _patched_parser(boom))
    assert cli.main(parser_args) == 130
    assert "interrupted" in capsys.readouterr().err


def test_resource_limit_reported(monkeypatch, capsys):
    import repro.cli as cli
    from repro.lang.errors import ResourceLimitError

    def exhausted(args):
        raise ResourceLimitError("too deep", kind="recursion")

    monkeypatch.setattr(cli, "build_parser", _patched_parser(exhausted))
    assert cli.main(["check", "x.m3"]) == 1
    assert "resource limit" in capsys.readouterr().err


def _patched_parser(func):
    import argparse

    def build():
        parser = argparse.ArgumentParser()
        sub = parser.add_subparsers(dest="command", required=True)
        p = sub.add_parser("check")
        p.add_argument("file")
        p.set_defaults(func=func)
        return parser

    return build


# ----------------------------------------------------------------------
# The serve daemon, client and serve bench


def test_serve_stdio_command_roundtrip(tmp_path, monkeypatch, capsys):
    import io
    import json
    import sys

    monkeypatch.setattr(sys, "stdin", io.StringIO(
        '{"op": "ping", "id": "p"}\n'
        '{"op": "shutdown", "id": "s"}\n'))
    assert main(["-q", "serve", "--stdio",
                 "--cache-dir", str(tmp_path / "cache")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    ping = json.loads(lines[0])
    assert ping["ok"] and ping["result"]["pong"] is True
    assert json.loads(lines[1])["result"]["stopping"] is True


def test_client_queries_subprocess_daemon(demo_file, tmp_path, capsys):
    import json

    assert main(["-q", "client", demo_file, "--op", "tables",
                 "--cache-dir", str(tmp_path / "cache")]) == 0
    response = json.loads(capsys.readouterr().out)
    assert response["ok"]
    rows = response["result"]["rows"]
    assert [r["analysis"] for r in rows] == \
        ["TypeDecl", "FieldTypeDecl", "SMFieldTypeRefs"]


def test_client_reports_compile_error(tmp_path, capsys):
    import json

    broken = tmp_path / "broken.m3"
    broken.write_text(BROKEN)
    assert main(["-q", "client", str(broken), "--op", "alias",
                 "--cache-dir", str(tmp_path / "cache")]) == 1
    response = json.loads(capsys.readouterr().out)
    assert response["ok"] is False
    assert response["error"]["kind"] == "compile"


def test_bench_serve_appends_history_record(tmp_path, capsys):
    from repro.obs import history

    hist = str(tmp_path / "hist.jsonl")
    assert main(["bench", "serve", "--only", "format",
                 "--repeats", "1", "--history", hist]) == 0
    out = capsys.readouterr().out
    assert "bench serve: ok" in out
    [record] = history.read_history(hist)
    assert record["label"] == "bench-serve"
    suite = record["phases"][history.SUITE_BUCKET]
    assert suite["serve.cold"] > suite["serve.warm"] > 0


def test_bench_serve_enforces_speedup_floor(capsys):
    assert main(["bench", "serve", "--only", "format", "--repeats", "1",
                 "--no-history", "--min-speedup", "1000000"]) == 1
    assert "bench serve:" in capsys.readouterr().err
