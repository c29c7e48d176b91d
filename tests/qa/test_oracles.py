"""Oracle layer: clean programs pass, seeded faults are caught."""

import json

import pytest

from repro.analysis.typehierarchy import FAULT_ENV
from repro.qa.generator import generate_program
from repro.qa.oracles import check_program
from repro.runtime import interp

CLEAN = """
MODULE Clean;
TYPE T = OBJECT n: INTEGER; next: T; END;
VAR a, b: T; i, sum: INTEGER;
BEGIN
  a := NEW (T, n := 1);
  b := NEW (T, n := 2);
  a.next := b;
  b.next := b;
  FOR i := 1 TO 4 DO
    sum := sum + a.next.n + b.next.n;
  END;
  PutInt (sum);
END Clean.
"""

BROKEN = "MODULE Broken; BEGIN zap := 1; END Broken."

TRAPPING = """
MODULE Trapping;
TYPE T = OBJECT n: INTEGER; next: T; END;
VAR t: T;
BEGIN
  t := NEW (T, n := 1);
  t.n := t.next.n;  (* t.next is NIL: traps *)
END Trapping.
"""


def test_clean_source_passes_all_oracles():
    report = check_program(CLEAN, name="Clean")
    assert report.ok
    assert report.ran and not report.trapped
    assert report.references > 0
    assert report.trace_pairs > 0  # a.next and b.next share b's object
    for phase in ("compile", "static", "engine", "run", "dynamic", "cache",
                  "optimized"):
        assert phase in report.phases


def test_generated_programs_pass(subtests=None):
    for seed in range(10):
        report = check_program(generate_program(seed))
        assert report.ok, "seed {}: {}".format(seed, report.violations[:2])
        assert report.seed == seed


def test_compile_error_is_a_violation():
    report = check_program(BROKEN, name="Broken")
    assert not report.ok
    assert report.first_kind() == "compile"
    assert report.phases == ["compile"]  # later phases skipped
    [violation] = report.violations
    assert "zap" in violation.message
    assert "^" in violation.details["rendered"]


def test_trap_tolerated_prefix_still_checked():
    report = check_program(TRAPPING, name="Trapping")
    assert report.ok  # a trap is not a violation ...
    assert report.trapped and not report.ran  # ... but is recorded


def test_report_json_round_trips():
    report = check_program(generate_program(1))
    blob = json.dumps(report.to_json(), sort_keys=True)
    back = json.loads(blob)
    assert back["ok"] is True
    assert back["seed"] == 1
    assert back["name"] == "Fuzz1"
    assert isinstance(back["violations"], list)


def test_injected_subtype_fault_is_caught(monkeypatch):
    monkeypatch.setenv(FAULT_ENV, "1")
    # The sabotage drops one subtype from every multi-bit Subtypes mask,
    # making the analyses under-approximate.  Some seed in this window
    # must expose it dynamically (a supertype variable holding a subtype
    # value whose accesses the pruned analyses now separate).
    kinds = set()
    for seed in range(12):
        report = check_program(generate_program(seed))
        kinds.update(v.kind for v in report.violations)
        if kinds:
            break
    assert "dynamic-soundness" in kinds or "refinement" in kinds


def test_fault_env_off_means_clean(monkeypatch):
    monkeypatch.delenv(FAULT_ENV, raising=False)
    assert check_program(generate_program(0)).ok


#: Seeds whose figure builds once ended otherwise than base: nine where
#: an eliminated load lost its NIL check (a Python error or a later
#: trap instead of base's), and 729, where a store to a path's prefix
#: left the path available (a silent wrong answer).
DISAGREEING_SEEDS = (97, 321, 355, 630, 729, 796, 850, 878, 888, 950)


@pytest.mark.parametrize("seed", DISAGREEING_SEEDS)
def test_figure_builds_end_as_base_does(seed):
    report = check_program(generate_program(seed), max_steps=200_000)
    assert "optimized" in report.phases
    assert report.ok, report.violations[:2]


def test_optimized_oracle_catches_a_dropped_check(monkeypatch):
    # Seed 97's base traps at 78:19; without the check its eliminated
    # load keeps, the FieldTypeDecl build adds the hoister's junk NIL.
    monkeypatch.setattr(interp, "_checked_copy",
                        lambda d, s, load: interp._copy(d, s))
    report = check_program(generate_program(97), max_steps=200_000)
    assert {v.kind for v in report.violations} == {"optimized"}
    message = report.violations[0].message
    assert "interpreter error" in message
    assert "NIL dereference at Fuzz97:78:19" in message


def test_budget_bound_base_skips_the_builds():
    # A base run cut by the step budget has no ending to match.
    report = check_program(CLEAN, name="Clean", max_steps=5)
    assert report.trapped and report.ok
    assert "optimized" not in report.phases
