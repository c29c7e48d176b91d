"""Tests of the end-to-end benchmark itself.

Not part of the tier-1 suite (whose ``testpaths`` is ``tests``); run
with ``python -m pytest benchmarks/e2e -q``.  Most tests start the real
benchmark on ``--smoke`` inputs, so they take about a minute.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import common
import run as runner
import serve_load
import workload

SPEC = common.load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "benchmarks" / "e2e" / "run.py"), *args],
        cwd=str(root), capture_output=True, text=True, timeout=600)


def processes_mentioning(text: str):
    """Pids whose command line contains *text*."""
    found = []
    for path in Path("/proc").glob("[0-9]*/cmdline"):
        try:
            cmdline = path.read_bytes().replace(b"\0", b" ").decode()
        except OSError:
            continue
        if text in cmdline:
            found.append(path.parent.name)
    return found


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", WORKLOADS)
def test_smoke_prints_every_metric_and_leaves_nothing(name, trace, tmp_path):
    proc = bench(common.ROOT, "--workload", name, "--seed", "3",
                 "--seconds", "1", "--smoke", "--trace", str(trace),
                 "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    chosen = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in chosen}
    printed = SPEC["end_to_end"] + (SPEC["per_layer"] if trace else [])
    for metric in printed:
        pattern = r"\[{}\] {} = \S+ {}( |$)".format(
            name, re.escape(metric["name"]), re.escape(metric["unit"]))
        assert any(re.match(pattern, line) for line in lines), metric
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    # No work directory (corpus, fact store, trace store) and no daemon
    # outlives the run.
    assert not list(tmp_path.glob("work-*"))
    assert processes_mentioning(str(tmp_path)) == []


def test_benchmark_json_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    named = SPEC["workloads"] + SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in named]
    assert all(NAME.match(n) for n in names)
    assert len(names) == len(set(names))
    assert all(UNIT.match(m["unit"]) for m in SPEC["end_to_end"] +
               SPEC["per_layer"])
    assert all(m["better"] in ("higher", "lower") for m in
               SPEC["end_to_end"] + SPEC["per_layer"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in SPEC["workloads"])
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(b < bounds["setup_s"] for n, b in bounds.items()
               if n != "setup_s")


def test_corrupted_golden_fails_the_run(tmp_path):
    # A checkout whose only difference is one golden cell.
    shutil.copytree(common.E2E_DIR, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(common.SPEC_PATH, tmp_path)
    (tmp_path / "src").symlink_to(common.SRC)
    golden = tmp_path / "benchmarks" / "e2e" / "golden" / "table5.txt"
    text = golden.read_text()
    corrupted = re.sub(r"(?m)^(write-pickle\s+)(\d+)",
                       lambda m: m.group(1) + str(int(m.group(2)) + 1), text)
    assert corrupted != text
    golden.write_text(corrupted)
    proc = bench(tmp_path, "--workload", "tables_suite", "--seed", "1",
                 "--seconds", "1", "--smoke", "--out", str(tmp_path / "out"))
    assert proc.returncode == 1, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert not result["correct"] and result["failed"] >= 1
    assert "WRONG: write-pickle" in proc.stdout


def test_wrong_served_answer_fails_the_run(tmp_path, monkeypatch, capsys):
    served = serve_load.Client.query

    def tampered(self, payload):
        response = served(self, payload)
        if isinstance(payload, dict) and payload["op"] in ("alias", "tables"):
            if payload["op"] == "alias":
                response["result"]["local_pairs"] += 1
            else:
                response["result"]["rows"][0]["global_pairs"] += 1
        return response

    monkeypatch.setattr(serve_load.Client, "query", tampered)
    code = workload.main(["serve_read", "--seed", "1", "--seconds", "1",
                          "--trace", "0", "--out", str(tmp_path), "--smoke"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0


def test_edit_sites_keep_the_reference_answer():
    """Rewriting any of the 57 ``:= <int>;`` literals leaves the
    reference Table 5 answer of both worlds unchanged, which is what lets
    ``serve_edit`` check an edit against the unedited program."""
    mods = serve_load.modules(seed=0, smoke=True)
    sites = serve_load.edit_sites(mods)
    assert len(sites) == 57
    expected = {}
    for m, start, end in sites:
        name, source = mods[m]
        assert int(source[start:end]) < serve_load.EDIT_BASE
        if m not in expected:
            expected[m] = serve_load.reference_answers(source, name)
        for value in (serve_load.EDIT_BASE, 2 ** 31 - 1):
            edited = serve_load.edit(source, start, end, value)
            assert serve_load.reference_answers(edited, name) == expected[m]


def test_verdicts():
    base = [100.0, 101.0, 99.0, 100.0, 102.0]
    assert runner.verdict(base, [101, 100, 99, 100, 101], True, 0.1) == "same"
    assert runner.verdict(base, [80, 81, 79, 80, 82], True, 0.1) == "worse"
    assert runner.verdict(base, [80, 81, 79, 80, 82], False, 0.1) == "better"
    wide = [50.0, 100.0, 150.0, 100.0, 120.0]
    assert runner.verdict(wide, [60, 110, 140, 90, 100], True, 0.1) == \
        "unresolved"
    assert runner.verdict(wide, [200, 210, 220], True, 0.1) == "better"
    assert runner.verdict(wide, [20, 21, 22], True, 0.1) == "worse"


def test_compare_gives_each_workload_and_metric_a_row(tmp_path, capsys):
    for side, scale in (("a", 1.0), ("b", 1.5)):
        (tmp_path / side).mkdir()
        for i in range(3):
            record = {"trace": 0, "correct": True}
            for section in ("end_to_end", "per_layer"):
                record[section] = {
                    m["name"]: {"value": scale * (10 + i), "unit": m["unit"]}
                    for m in SPEC[section]}
            for workload in WORKLOADS:
                (tmp_path / side / "{}-{}.json".format(workload, i)).write_text(
                    json.dumps(dict(record, workload=workload)))
    assert runner.compare(tmp_path / "a", tmp_path / "b") == 1
    out = capsys.readouterr().out
    better = {m["name"]: m["better"] for m in SPEC["end_to_end"] +
              SPEC["per_layer"]}
    for workload in WORKLOADS:
        gated = runner.COMPARE_BOUNDS[workload]
        assert {m["name"] for m in SPEC["end_to_end"]} <= set(gated)
        for metric in gated:
            row = [line for line in out.splitlines()
                   if line.split()[:2] == [workload, metric]]
            want = "better" if better[metric] == "higher" else "worse"
            assert len(row) == 1 and row[0].endswith(want), out


def test_compare_bounds_are_never_wider_than_benchmark_json():
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    for workload in WORKLOADS:
        for _, name, _, bound in runner.gated(SPEC, workload):
            assert bound <= bounds.get(name, bound)
    # serve_edit's op is the edit; its reads are judged on their own.
    assert {"serve.read_ms.p50", "serve.read_ms.p90"} <= set(
        runner.COMPARE_BOUNDS["serve_edit"])
