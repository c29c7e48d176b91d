"""The warm-vs-cold serving benchmark and its acceptance gate."""

import pytest

from repro import cli
from repro.obs import history, metrics
from repro.serve import bench, daemon
from repro.serve.bench import (
    DEFAULT_MIN_SPEEDUP,
    ServeBenchError,
    check_speedup,
    run_serve_bench,
)


@pytest.fixture(scope="module")
def result():
    metrics.registry().reset()
    return run_serve_bench(names=["format"], repeats=2)


def test_result_shape_and_internal_pinning(result):
    assert result["benchmarks"] == ["format"]
    assert result["queries"] == 2
    assert result["cold_ms"] > 0
    assert result["warm_ms"] > 0
    assert result["warm_qps"] > result["cold_qps"]
    assert result["handle_ms"] > 0
    assert result["handle_ms"] + result["transport_ms"] == pytest.approx(
        result["warm_ms"], abs=0.002)
    # run_serve_bench already asserted warm == cold answers internally;
    # reaching here means the pinning passed.
    # speedup is computed from the unrounded rates; compare loosely.
    assert result["speedup"] == pytest.approx(
        result["warm_qps"] / result["cold_qps"], rel=0.01)


def test_warm_serving_clears_acceptance_threshold(result):
    # The ISSUE acceptance floor, checked on real measurements.
    check_speedup(result, DEFAULT_MIN_SPEEDUP)
    assert result["speedup"] >= DEFAULT_MIN_SPEEDUP


def test_bench_sets_gauges(result):
    registry = metrics.registry()
    assert registry.gauge("serve.bench.speedup").value == result["speedup"]
    assert registry.gauge("serve.bench.warm_qps").value == \
        result["warm_qps"]


def test_serve_phases_land_in_suite_bucket(tmp_path, monkeypatch):
    # The serve.cold/serve.warm spans are the ledger's only source of
    # those phases, so a `bench serve` record holds each loop's time once.
    results = []

    def recorded(**kwargs):
        results.append(run_serve_bench(**kwargs))
        return results[-1]

    monkeypatch.setattr(bench, "run_serve_bench", recorded)
    ledger = str(tmp_path / "history.jsonl")
    assert cli.main(["-q", "bench", "serve", "--only", "format",
                     "--repeats", "4", "--min-speedup", "0",
                     "--history", ledger]) == 0
    [result] = results
    [record] = history.read_history(ledger)
    bucket = record["phases"][history.SUITE_BUCKET]
    assert bucket["serve.cold"] == pytest.approx(result["cold_ms"] / 1000.0,
                                                 rel=0.02)
    assert bucket["serve.warm"] == pytest.approx(result["warm_ms"] / 1000.0,
                                                 rel=0.02)
    assert bucket["serve.warm"] < bucket["serve.cold"]
    assert bucket["serve.transport"] == pytest.approx(
        result["transport_ms"] / 1000.0, rel=0.02)
    assert bucket["serve.warm"] >= bucket["serve.transport"]


def test_gate_fails_when_the_transport_stalls(monkeypatch):
    # Negative control: with Nagle back on, every kept-alive reply body
    # waits for the client's delayed ACK, and the warm loop times it.
    monkeypatch.setattr(daemon.Handler, "disable_nagle_algorithm", False)
    stalled = run_serve_bench(names=["format"], repeats=2)
    with pytest.raises(ServeBenchError, match="threshold"):
        check_speedup(stalled)


def test_check_speedup_raises_below_threshold():
    fake = {"speedup": 1.5}
    with pytest.raises(ServeBenchError, match="threshold"):
        check_speedup(fake, min_speedup=5.0)
    check_speedup(fake, min_speedup=1.0)  # and passes when cleared
