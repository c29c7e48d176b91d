"""RLE unit tests: CSE, kills, hoisting, statuses."""

import pytest

from repro import compile_program
from repro.analysis.modref import ModRefAnalysis
from repro.analysis.openworld import AnalysisContext
from repro.ir import instructions as ins
from repro.ir.lowering import lower_module
from repro.opt.rle import RedundantLoadElimination
from repro.runtime import Interpreter, MachineModel
from repro.runtime.limit import (
    STATUS_ELIMINATED,
    STATUS_KILLED_CALL,
    STATUS_KILLED_STORE,
    STATUS_PARTIAL,
)


def optimize(source, analysis="SMFieldTypeRefs", **kwargs):
    """Lower fresh and run RLE only (no backend pass) for surgical tests."""
    program_obj = compile_program(source)
    checked = program_obj.checked
    program = lower_module(checked)
    ctx = AnalysisContext(checked)
    rle = RedundantLoadElimination(
        program, ctx.build(analysis), ModRefAnalysis(program), **kwargs
    )
    stats = rle.run()
    return program, stats


def run(program):
    return Interpreter(program, machine=MachineModel()).run()


DECLS = """
TYPE
  T = OBJECT n: INTEGER; f: T; END;
  U = OBJECT m: INTEGER; END;
VAR t, t2: T; u: U; x: INTEGER;
PROCEDURE Noop () = BEGIN END Noop;
PROCEDURE WriteT () = BEGIN t.n := 5; END WriteT;
PROCEDURE WriteU () = BEGIN u.m := 5; END WriteU;
"""


def wrap(body):
    return "MODULE M; {} BEGIN t := NEW (T); t2 := NEW (T); u := NEW (U); {} END M.".format(
        DECLS, body
    )


class TestCSE:
    def test_straight_line_redundant_load_removed(self):
        program, stats = optimize(wrap("x := t.n; x := x + t.n;"))
        assert stats.eliminated_loads == 1

    def test_load_after_same_path_store_forwarded(self):
        program, stats = optimize(wrap("t.n := 3; x := t.n;"))
        assert stats.eliminated_loads == 1

    def test_non_aliasing_store_does_not_kill(self):
        # u.m and t.n have the same value type but different fields of
        # unrelated objects — FieldTypeDecl keeps them apart.
        program, stats = optimize(wrap("x := t.n; u.m := 9; x := x + t.n;"))
        assert stats.eliminated_loads == 1

    def test_aliasing_store_kills(self):
        program, stats = optimize(wrap("x := t.n; t2.n := 9; x := x + t.n;"))
        assert stats.eliminated_loads == 0
        killed = [s for s in stats.load_status.values() if s == STATUS_KILLED_STORE]
        assert killed

    def test_root_redefinition_kills(self):
        program, stats = optimize(wrap("x := t.n; t := t2; x := x + t.n;"))
        assert stats.eliminated_loads == 0

    def test_call_with_relevant_writes_kills(self):
        program, stats = optimize(wrap("x := t.n; WriteT (); x := x + t.n;"))
        assert stats.eliminated_loads == 0
        assert STATUS_KILLED_CALL in stats.load_status.values()

    def test_call_with_irrelevant_writes_does_not_kill(self):
        """Interprocedural mod-ref: WriteU touches only U objects."""
        program, stats = optimize(wrap("x := t.n; WriteU (); x := x + t.n;"))
        assert stats.eliminated_loads == 1

    def test_pure_call_does_not_kill(self):
        program, stats = optimize(wrap("x := t.n; Noop (); x := x + t.n;"))
        assert stats.eliminated_loads == 1

    def test_availability_must_hold_on_all_paths(self):
        body = """
        IF x > 0 THEN
          x := t.n;
        END;
        x := x + t.n;
        """
        program, stats = optimize(wrap(body))
        assert stats.eliminated_loads == 0
        assert STATUS_PARTIAL in stats.load_status.values()

    def test_available_on_both_paths_eliminated(self):
        body = """
        IF x > 0 THEN
          x := t.n;
        ELSE
          x := t.n + 1;
        END;
        x := x + t.n;
        """
        program, stats = optimize(wrap(body))
        assert stats.eliminated_loads == 1

    def test_subscript_index_matters(self):
        source = """
        MODULE M;
        TYPE B = REF ARRAY OF INTEGER;
        VAR b: B; x, i, j: INTEGER;
        BEGIN
          b := NEW (B, 4);
          x := b^[i] + b^[j];
          x := x + b^[i];
        END M.
        """
        program, stats = optimize(source)
        # b^[i] reloaded -> eliminated; b^[j] distinct
        assert stats.eliminated_loads == 1

    def test_index_redefinition_kills(self):
        source = """
        MODULE M;
        TYPE B = REF ARRAY OF INTEGER;
        VAR b: B; x, i: INTEGER;
        BEGIN
          b := NEW (B, 4);
          x := b^[i];
          i := i + 1;
          x := x + b^[i];
        END M.
        """
        program, stats = optimize(source)
        assert stats.eliminated_loads == 0

    def test_dope_loads_invisible_by_default(self):
        source = """
        MODULE M;
        TYPE B = REF ARRAY OF INTEGER;
        VAR b: B; x: INTEGER;
        BEGIN
          b := NEW (B, 4);
          x := b^[0];
          x := x + b^[1];
        END M.
        """
        program, stats = optimize(source)
        dopes = [
            i for i in program.main.all_instrs() if isinstance(i, ins.LoadDopeData)
        ]
        assert len(dopes) == 2  # both dope loads survive

    def test_dope_ablation_eliminates(self):
        source = """
        MODULE M;
        TYPE B = REF ARRAY OF INTEGER;
        VAR b: B; x: INTEGER;
        BEGIN
          b := NEW (B, 4);
          x := b^[0];
          x := x + b^[1];
        END M.
        """
        program, stats = optimize(source, see_dope_loads=True)
        dopes = [
            i for i in program.main.all_instrs() if isinstance(i, ins.LoadDopeData)
        ]
        assert len(dopes) == 1


class TestHoisting:
    LOOP = """
    MODULE M;
    TYPE T = OBJECT n: INTEGER; END;
    VAR t: T; x, i: INTEGER;
    BEGIN
      t := NEW (T, n := 2);
      i := 0;
      WHILE i < 10 DO
        x := x + t.n;
        INC (i);
      END;
      PutInt (x);
    END M.
    """

    def test_invariant_load_hoisted(self):
        program, stats = optimize(self.LOOP)
        assert stats.hoisted_paths >= 1
        assert stats.eliminated_loads >= 1

    def test_hoisting_preserves_semantics_and_saves_loads(self):
        base_prog, _ = optimize(self.LOOP, hoist=False)
        hoist_prog, _ = optimize(self.LOOP, hoist=True)
        s0 = run(base_prog)
        s1 = run(hoist_prog)
        assert s0.output_text() == s1.output_text() == "20"
        assert s1.heap_loads < s0.heap_loads

    def test_store_in_loop_prevents_hoist(self):
        source = """
        MODULE M;
        TYPE T = OBJECT n: INTEGER; END;
        VAR t: T; x, i: INTEGER;
        BEGIN
          t := NEW (T);
          i := 0;
          WHILE i < 10 DO
            x := x + t.n;
            t.n := x;
            INC (i);
          END;
        END M.
        """
        program, stats = optimize(source)
        assert stats.hoisted_paths == 0

    def test_changing_base_prevents_hoist(self):
        source = """
        MODULE M;
        TYPE T = OBJECT n: INTEGER; f: T; END;
        VAR t: T; x: INTEGER;
        BEGIN
          t := NEW (T, f := NEW (T));
          WHILE t # NIL DO
            x := x + t.n;
            t := t.f;
          END;
        END M.
        """
        program, stats = optimize(source)
        assert stats.hoisted_paths == 0

    def test_conditional_load_not_hoisted(self):
        source = """
        MODULE M;
        TYPE T = OBJECT n: INTEGER; END;
        VAR t: T; x, i: INTEGER;
        BEGIN
          t := NEW (T);
          i := 0;
          WHILE i < 10 DO
            IF i MOD 2 = 0 THEN
              x := x + t.n;
            END;
            INC (i);
          END;
        END M.
        """
        program, stats = optimize(source)
        assert stats.hoisted_paths == 0

    def test_zero_trip_loop_safe(self):
        """Hoisted loads are speculative: a zero-trip loop over a NIL base
        must not trap."""
        source = """
        MODULE M;
        TYPE T = OBJECT n: INTEGER; END;
        VAR t: T; x, i: INTEGER;
        BEGIN
          i := 99;
          WHILE i < 10 DO
            x := x + t.n;   (* t is NIL, but the loop never runs *)
            INC (i);
          END;
          PutInt (x);
        END M.
        """
        program, stats = optimize(source)
        stats_run = run(program)
        assert stats_run.output_text() == "0"


class TestCorrectnessSpot:
    def test_outputs_match_after_rle(self):
        source = """
        MODULE M;
        TYPE T = OBJECT n: INTEGER; f: T; END;
        VAR a, b: T; x, i: INTEGER;
        BEGIN
          a := NEW (T, n := 1);
          b := NEW (T, n := 2);
          a.f := b;
          FOR i := 0 TO 20 DO
            x := x + a.n + a.f.n;
            IF i MOD 3 = 0 THEN
              b.n := b.n + 1;   (* aliases a.f.n! *)
            END;
          END;
          PutInt (x);
        END M.
        """
        plain = compile_program(source)
        base = plain.run(plain.base())
        opt = plain.optimize("SMFieldTypeRefs")
        after = plain.run(opt)
        assert base.output_text() == after.output_text()
        assert after.heap_loads <= base.heap_loads


class TestPrefixKills:
    """A write to a path a load goes through kills the load's path."""

    SOURCE = """
    MODULE M;
    TYPE T = OBJECT f0: INTEGER; r2: T; END;
    VAR a, b: T; x, y: INTEGER;
    PROCEDURE Relink (p: T) = BEGIN p.r2 := p; END Relink;
    BEGIN
      a := NEW (T, f0 := 6);
      b := NEW (T, f0 := 4);
      a.r2 := b;
      x := a.r2.f0;
      {}
      y := a.r2.f0;
      PutInt (x); PutText (" "); PutInt (y);
    END M.
    """

    @pytest.mark.parametrize("analysis", ["TypeDecl", "FieldTypeDecl", "SMFieldTypeRefs"])
    @pytest.mark.parametrize("write", ["a.r2 := a;", "Relink (a);"])
    def test_write_to_a_prefix_kills_the_path(self, analysis, write):
        # The store (or the call's store) writes a.r2, an INTEGER field
        # load's prefix, so the second a.r2.f0 reads a.f0.
        program, stats = optimize(self.SOURCE.format(write), analysis)
        assert run(program).output_text() == "4 6"


class TestEliminatedLoadCheck:
    def test_eliminated_load_traps_where_it_would_have(self):
        # t.f is NIL: the hoisted copy of t.f.n reads junk without a trap,
        # and the in-loop load it replaces must still trap at its place.
        source = """
        MODULE M;
        TYPE T = OBJECT n: INTEGER; f: T; END;
        VAR t: T; x, i: INTEGER;
        BEGIN
          t := NEW (T);
          FOR i := 0 TO 3 DO
            x := x + t.f.n;
          END;
          PutInt (x);
        END M.
        """
        plain = compile_program(source)
        program, stats = optimize(source)
        assert stats.hoisted_paths
        moves = [i for i in program.all_instrs()
                 if isinstance(i, ins.LoadVar) and i.checks is not None]
        assert moves and not any(m.checks.speculative for m in moves)
        with pytest.raises(Exception) as base_trap:
            plain.run(plain.base())
        with pytest.raises(Exception) as opt_trap:
            run(program)
        assert str(opt_trap.value) == str(base_trap.value)
        assert "NIL dereference at" in str(opt_trap.value)
