"""BenchmarkSuite driver tests: caching and config identity."""

import pytest

from repro.bench import suite as suite_module
from repro.bench.suite import BASE, BenchmarkSuite, RunConfig
from repro.bench.tables import relative_time
from repro.obs import metrics


def test_program_cached(suite):
    assert suite.program("format") is suite.program("format")


def test_build_cached_per_config(suite):
    a = suite.build("write-pickle", BASE)
    b = suite.build("write-pickle", BASE)
    assert a is b
    c = suite.build("write-pickle", RunConfig(analysis="TypeDecl"))
    assert c is not a


def test_run_cached(suite):
    a = suite.run("write-pickle", BASE)
    b = suite.run("write-pickle", BASE)
    assert a is b


def test_config_keys_distinguish_options():
    keys = {
        RunConfig().key(),
        RunConfig(analysis="TypeDecl").key(),
        RunConfig(analysis="TypeDecl", hoist=False).key(),
        RunConfig(analysis="TypeDecl", see_dope_loads=True).key(),
        RunConfig(analysis="TypeDecl", open_world=True).key(),
        RunConfig(minv_inline=True).key(),
        RunConfig(copyprop=True).key(),
        RunConfig(analysis="TypeDecl", pre=True).key(),
    }
    assert len(keys) == 8


def test_is_base():
    assert RunConfig().is_base
    assert not RunConfig(analysis="TypeDecl").is_base
    assert not RunConfig(minv_inline=True).is_base
    assert not RunConfig(copyprop=True).is_base


def test_relative_time_base_is_one(suite):
    assert relative_time(suite, "write-pickle", BASE) == 1.0


def test_relative_time_bounded(suite):
    rel = relative_time(suite, "write-pickle", RunConfig(analysis="SMFieldTypeRefs"))
    assert 0.5 < rel <= 1.0


@pytest.fixture
def tracers(monkeypatch):
    """The ``tracer`` argument of every interpreter the suite creates."""
    seen = []
    real = suite_module.Interpreter

    def spy(program, machine=None, tracer=None):
        seen.append(tracer)
        return real(program, machine=machine, tracer=tracer)

    monkeypatch.setattr(suite_module, "Interpreter", spy)
    return seen


def _limit_counters():
    return [entry for entry in metrics.registry().snapshot()
            if entry["name"].startswith("limit.")]


def test_plain_run_attaches_no_tracer(tracers):
    """What ``repro bench`` and ``bench gate`` time: ``run()`` alone
    executes untraced and moves no limit-study counter."""
    before = _limit_counters()
    fresh = BenchmarkSuite()
    fresh.run("write-pickle", BASE)
    fresh.run("write-pickle", RunConfig(analysis="SMFieldTypeRefs"))
    assert tracers == [None, None]
    assert _limit_counters() == before


def test_limit_study_classifies_the_one_execution(tracers):
    fresh = BenchmarkSuite()
    report = fresh.limit_study("write-pickle", BASE)
    stats = fresh.run("write-pickle", BASE)
    assert fresh.limit_study("write-pickle", BASE) is report
    assert fresh.run("write-pickle", BASE) is stats
    [tracer] = tracers
    assert tracer is not None
    assert report.redundant_loads == tracer.redundant_loads > 0


def test_limit_study_after_plain_run_executes_traced(tracers):
    fresh = BenchmarkSuite()
    plain = fresh.run("write-pickle", BASE)
    report = fresh.limit_study("write-pickle", BASE)
    assert tracers[0] is None and tracers[1] is not None
    assert report.total_heap_loads == plain.heap_loads
    assert fresh.run("write-pickle", BASE).cycles == plain.cycles


def test_fresh_suite_isolated():
    s1 = BenchmarkSuite()
    s2 = BenchmarkSuite()
    assert s1.program("dom") is not s2.program("dom")
