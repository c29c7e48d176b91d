"""Tracing must observe, never perturb: Table 5 numbers are identical
with the recorder enabled and disabled."""

import pytest

from repro import compile_program
from repro.analysis import ANALYSIS_NAMES
from repro.obs import core, metrics

SOURCE = """
MODULE Diff;
TYPE
  T = OBJECT f, g: T; END;
  S = T OBJECT a: INTEGER; END;
VAR t: T; s: S; x: INTEGER;

PROCEDURE P1 () =
BEGIN
  t.f := t.g;
  IF t.f # NIL THEN t.g := t.f.f; END;
END P1;

PROCEDURE P2 () =
BEGIN
  s.f := NIL;
  x := s.a;
END P2;

BEGIN
  P1 ();
  P2 ();
END Diff.
"""


def table5_numbers():
    program = compile_program(SOURCE, "diff.m3")
    out = {}
    for name in ANALYSIS_NAMES:
        report = program.alias_pairs(name)
        out[name] = (report.references, report.local_pairs,
                     report.global_pairs)
    return out


@pytest.fixture
def traced_recorder():
    """Enable the process-wide recorder for one test, then restore."""
    recorder = core.recorder()
    was_enabled = recorder.is_enabled
    recorder.reset()
    recorder.enable()
    yield recorder
    if not was_enabled:
        recorder.disable()
    recorder.reset()


def test_tracing_does_not_change_table5(traced_recorder):
    core.disable()
    baseline = table5_numbers()
    core.enable()
    traced = table5_numbers()
    assert traced == baseline
    # And the run really was traced.
    names = {s.name for s in traced_recorder.spans()}
    assert "compile" in names
    assert "aliaspairs.count" in names
    assert "analysis.build" in names


def test_tracing_does_not_change_rle(traced_recorder):
    # load_status is keyed by instruction objects and each compile makes
    # its own, so compare the per-status counts (the Table 6 inputs).
    from collections import Counter

    core.disable()
    program = compile_program(SOURCE, "diff.m3")
    baseline = Counter(program.optimize("SMFieldTypeRefs").load_status.values())
    core.enable()
    program = compile_program(SOURCE, "diff.m3")
    traced = Counter(program.optimize("SMFieldTypeRefs").load_status.values())
    assert traced == baseline


def test_metrics_record_identically_with_and_without_tracing():
    """Counters live outside the recorder: same totals either way."""
    registry = metrics.registry()

    core.disable()
    registry.reset()
    table5_numbers()
    baseline = {(e["name"], tuple(sorted(e["labels"].items()))): e.get("value")
                for e in registry.snapshot() if e["kind"] == "counter"}

    recorder = core.recorder()
    recorder.reset()
    core.enable()
    try:
        registry.reset()
        table5_numbers()
    finally:
        core.disable()
        recorder.reset()
    traced = {(e["name"], tuple(sorted(e["labels"].items()))): e.get("value")
              for e in registry.snapshot() if e["kind"] == "counter"}
    assert traced == baseline
