"""The paper's Figure 6 and Figure 7 examples, as executable tests.

Figure 6 — "Eliminating Loop Invariant Memory Loads": a loop containing
``... := a.b^[i]`` and ``... := a.b^[j]`` on two branches; RLE hoists
``t := a.b^`` in front of the loop and both branches index ``t``.

Figure 7 — "Eliminating Redundant Memory Loads": straight-line code
loading ``a.b^[i]`` and then ``a.b^[j]``; the second fetch of ``a.b^``
is replaced by the cached value.
"""

from repro import compile_program
from repro.ir import instructions as ins
from repro.runtime import Interpreter


FIGURE6 = """
MODULE Fig6;
TYPE
  Inner = REF ARRAY [0..15] OF INTEGER;
  A = OBJECT b: Inner; END;
VAR a: A; x, i, j: INTEGER;
BEGIN
  a := NEW (A, b := NEW (Inner));
  i := 0;
  j := 15;
  WHILE i < j DO
    IF i MOD 2 = 0 THEN
      x := x + a.b^[i];    (* ... := a.b^[i] *)
    ELSE
      x := x + a.b^[j];    (* ... := a.b^[j] *)
    END;
    INC (i);
    DEC (j);
  END;
  PutInt (x);
END Fig6.
"""

FIGURE7 = """
MODULE Fig7;
TYPE
  Inner = REF ARRAY [0..15] OF INTEGER;
  A = OBJECT b: Inner; END;
VAR a: A; x, y, i, j: INTEGER;
BEGIN
  a := NEW (A, b := NEW (Inner));
  a.b^[3] := 30;
  a.b^[7] := 70;
  i := 3;
  j := 7;
  x := a.b^[i];            (* t := a.b^; x := t[i] *)
  y := a.b^[j];            (* redundant a.b^ load; y := t[j] *)
  PutInt (x + y);
END Fig7.
"""


def loads_of_field(program_ir, proc_name, field):
    return [
        instr
        for instr in program_ir.procs[proc_name].all_instrs()
        if isinstance(instr, ins.LoadField) and instr.field == field
    ]


class _FieldLoadCounter:
    """A tracer counting the executed heap loads of one field."""

    def __init__(self, field):
        self.field = field
        self.count = 0

    def on_load(self, instr, addr, value, activation):
        if isinstance(instr, ins.LoadField) and instr.field == self.field:
            self.count += 1

    def on_store(self, instr, addr, value, activation):
        pass


def executed_field_loads(result, field):
    tracer = _FieldLoadCounter(field)
    Interpreter(result.program, tracer=tracer).run()
    return tracer.count


class TestFigure6:
    def test_invariant_base_hoisted(self):
        program = compile_program(FIGURE6)
        result = program.optimize("SMFieldTypeRefs")
        assert result.rle is not None
        # `a.b` is hoisted: at least one path moved to the preheader...
        assert result.rle.hoisted_paths >= 1
        # ...and the loop body no longer re-loads a.b every iteration:
        base_stats = program.run(program.base())
        opt_stats = program.run(result)
        assert opt_stats.output_text() == base_stats.output_text()
        assert opt_stats.heap_loads < base_stats.heap_loads

    def test_dynamic_ab_loads_once(self):
        """After hoisting, a.b is loaded once instead of once per
        iteration (the loop runs eight times)."""
        program = compile_program(FIGURE6)
        assert executed_field_loads(program.base(), "b") == 8
        result = program.optimize("SMFieldTypeRefs")
        assert executed_field_loads(result, "b") == 1


class TestFigure7:
    def test_second_base_load_eliminated(self):
        program = compile_program(FIGURE7)
        result = program.optimize("SMFieldTypeRefs")
        # Static: only one surviving load of field b in main.
        surviving = loads_of_field(result.program, "<main>", "b")
        assert len(surviving) == 1
        # Semantics intact; the subscripts i and j stay distinct loads.
        stats = program.run(result)
        assert stats.output_text() == "100"

    def test_distinct_subscripts_not_merged(self):
        """t[i] and t[j] are different locations (Figure 7 keeps both)."""
        program = compile_program(FIGURE7)
        result = program.optimize("SMFieldTypeRefs")
        elems = [
            instr
            for instr in result.program.main.all_instrs()
            if isinstance(instr, ins.LoadElem)
        ]
        assert len(elems) == 2

    def test_typedecl_suffices_here(self):
        """No aliasing subtlety in the example: even TypeDecl-based RLE
        gets it (the paper's point that TypeDecl captures many wins)."""
        program = compile_program(FIGURE7)
        result = program.optimize("TypeDecl")
        surviving = loads_of_field(result.program, "<main>", "b")
        assert len(surviving) == 1
