"""Batch runner: fault isolation, JSON reports, digests, bundles."""

import json
from pathlib import Path

import pytest

from repro.analysis.typehierarchy import FAULT_ENV
from repro.qa import runner as runner_mod
from repro.qa.runner import FailureRecord, FuzzReport, failure_digest, run_fuzz


def test_clean_batch_is_ok(tmp_path):
    report = run_fuzz(8, base_seed=0, out_dir=tmp_path)
    assert report.ok
    assert report.checked == 8
    assert report.ran_clean + report.trapped == 8
    data = json.loads((tmp_path / "fuzz-report.json").read_text())
    assert data["ok"] is True
    assert data["failures"] == []
    assert data["count"] == 8


def test_failures_recorded_and_reduced(tmp_path, monkeypatch):
    monkeypatch.setenv(FAULT_ENV, "1")
    report = run_fuzz(6, base_seed=0, out_dir=tmp_path)
    assert not report.ok
    assert report.failures  # seeds 0 and 1 both catch the sabotage
    first = report.failures[0]
    assert first.kind in ("dynamic-soundness", "refinement")
    assert first.bundle is not None
    assert (tmp_path / "seed-{}".format(first.seed) / "reduced.m3").exists()
    assert first.reduced_statements is not None
    # The batch kept going after the first failure.
    assert report.checked == 6
    data = json.loads((tmp_path / "fuzz-report.json").read_text())
    assert data["ok"] is False
    assert data["distinct_digests"]


def test_one_crashing_seed_does_not_abort_batch(monkeypatch):
    real = runner_mod.check_program

    def sabotaged(program, **kwargs):
        if getattr(program, "seed", None) == 2:
            raise RuntimeError("synthetic harness crash")
        return real(program, **kwargs)

    monkeypatch.setattr(runner_mod, "check_program", sabotaged)
    report = run_fuzz(5, base_seed=0)
    assert report.checked == 4  # the crashed seed is excluded ...
    [failure] = report.failures  # ... but recorded
    assert failure.seed == 2
    assert failure.phase == "harness"
    assert failure.kind == "RuntimeError"


def test_keyboard_interrupt_propagates(monkeypatch):
    def interrupted(program, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(runner_mod, "check_program", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_fuzz(3, base_seed=0)


def test_parallel_jobs_match_serial(tmp_path, monkeypatch):
    """jobs>1 must reproduce the jobs=1 report, failures included, and
    write the same reduced crash bundles."""
    monkeypatch.setenv(FAULT_ENV, "1")
    serial = run_fuzz(6, base_seed=0, reduce=False, jobs=1)
    pooled = run_fuzz(6, base_seed=0, reduce=False, jobs=3)
    assert pooled.checked == serial.checked
    assert pooled.ran_clean == serial.ran_clean
    assert pooled.trapped == serial.trapped
    assert [(f.seed, f.phase, f.kind, f.digest) for f in pooled.failures] == \
        [(f.seed, f.phase, f.kind, f.digest) for f in serial.failures]

    def bundles(report, out_dir):
        return [(f.seed, f.digest, f.reduced_statements,
                 str(Path(f.bundle).relative_to(out_dir)),
                 (Path(f.bundle) / "reduced.m3").read_text())
                for f in report.failures]

    serial = run_fuzz(6, base_seed=0, out_dir=tmp_path / "serial", jobs=1)
    pooled = run_fuzz(6, base_seed=0, out_dir=tmp_path / "pooled", jobs=3)
    assert len(serial.failures) > 1
    assert bundles(pooled, tmp_path / "pooled") == \
        bundles(serial, tmp_path / "serial")
    reports = [json.loads((tmp_path / side / "fuzz-report.json").read_text())
               for side in ("serial", "pooled")]
    for data in reports:
        del data["duration_seconds"]
        for failure in data["failures"]:
            failure["bundle"] = Path(failure["bundle"]).name
    assert reports[0] == reports[1]


def test_trace_counters_match_at_any_jobs(tmp_path):
    """Pool workers' counters reach the --trace record, every series
    with the value an in-process run records."""
    from repro.cli import main

    def counters(jobs):
        path = tmp_path / "jobs{}.jsonl".format(jobs)
        assert main(["fuzz", "--count", "8", "--no-report", "--jobs",
                     str(jobs), "--trace", str(path)]) == 0
        record = json.loads(path.read_text())
        return {(e["name"], tuple(sorted(e["labels"].items()))): e["value"]
                for e in record["metrics"] if e["kind"] == "counter"}

    pooled = counters(2)  # first, so no series is left from the serial run
    serial = counters(1)
    assert pooled == serial
    assert serial[("run.interp.calls", ())] > 0
    assert serial[("aliaspairs.fast.references",
                   (("analysis", "TypeDecl"),))] > 0


def test_progress_reports_every_seed_in_order_at_any_jobs():
    for jobs in (1, 3):
        seen = []
        report = run_fuzz(7, base_seed=3, reduce=False, jobs=jobs,
                          progress=lambda *status: seen.append(status))
        assert [seed for seed, _, _ in seen] == list(range(3, 10))
        assert sum(run == "ran" for _, run, _ in seen) == report.ran_clean
        assert sum(run == "trap" for _, run, _ in seen) == report.trapped
        assert all(ok for _, _, ok in seen)


def test_parallel_report_written(tmp_path):
    report = run_fuzz(4, base_seed=0, out_dir=tmp_path, reduce=False, jobs=2)
    assert report.ok
    data = json.loads((tmp_path / "fuzz-report.json").read_text())
    assert data["count"] == 4
    assert data["checked"] == 4


def test_jobs_validation():
    with pytest.raises(ValueError):
        run_fuzz(2, jobs=0)
    # jobs=None resolves to os.cpu_count() without blowing up.
    assert run_fuzz(2, base_seed=0, jobs=None).checked == 2


def test_digest_is_stable_and_masks_digits():
    a = failure_digest("dynamic", "dynamic-soundness",
                       "v1.r12.f1 and v3.r2.f1 hit address 0x10088")
    b = failure_digest("dynamic", "dynamic-soundness",
                       "v9.r55.f7 and v8.r4.f2 hit address 0x99999")
    assert a == b  # same shape, different seeds/addresses
    assert len(a) == 12
    assert a != failure_digest("static", "refinement", "other")


def test_no_out_dir_writes_nothing(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    report = run_fuzz(3, base_seed=0, out_dir=None)
    assert report.ok
    assert not list(tmp_path.iterdir())


def test_report_json_shape():
    report = FuzzReport(base_seed=5, count=2)
    report.failures.append(
        FailureRecord(seed=5, name="Fuzz5", phase="static", kind="refinement",
                      message="m", digest="abc")
    )
    data = report.to_json()
    assert data["base_seed"] == 5
    assert data["ok"] is False
    assert data["failures"][0]["digest"] == "abc"
    json.dumps(data)  # fully serialisable
