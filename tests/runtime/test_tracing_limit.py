"""Tracer and limit-study tests — the paper's dynamic-redundancy metric."""

from repro import compile_program
from repro.ir.instructions import Instr, LoadField
from repro.ir.access_path import Qualify, VarRoot
from repro.lang import types as ty
from repro.lang.errors import UNKNOWN_LOCATION
from repro.lang.symtab import Symbol
from repro.runtime import LoadStoreTracer
from repro.runtime.limit import Category


def fake_load(ap=None):
    sym = Symbol("x", "var", ty.INTEGER, UNKNOWN_LOCATION)
    t = ty.ObjectType("T", ty.ROOT, [("f", ty.INTEGER)])
    ap = ap or Qualify(VarRoot(Symbol("t", "var", t, UNKNOWN_LOCATION)), "f", ty.INTEGER, t)
    from repro.ir.instructions import Temp

    return LoadField(Temp(0), Temp(1), "f", ap)


class TestTracerDefinition:
    """'Two consecutive loads of the same address load the same value in
    the same procedure activation.'"""

    def test_same_value_redundant(self):
        tracer = LoadStoreTracer()
        load = fake_load()
        tracer.on_load(load, 100, 7, activation=1)
        tracer.on_load(load, 100, 7, activation=1)
        assert tracer.redundant_loads == 1

    def test_different_value_not_redundant(self):
        tracer = LoadStoreTracer()
        load = fake_load()
        tracer.on_load(load, 100, 7, activation=1)
        tracer.on_load(load, 100, 8, activation=1)
        assert tracer.redundant_loads == 0

    def test_different_activation_not_redundant(self):
        tracer = LoadStoreTracer()
        load = fake_load()
        tracer.on_load(load, 100, 7, activation=1)
        tracer.on_load(load, 100, 7, activation=2)
        assert tracer.redundant_loads == 0

    def test_different_address_not_redundant(self):
        tracer = LoadStoreTracer()
        load = fake_load()
        tracer.on_load(load, 100, 7, activation=1)
        tracer.on_load(load, 108, 7, activation=1)
        assert tracer.redundant_loads == 0

    def test_store_writing_same_value_still_redundant(self):
        """ATOM compared values only: a store of the same value between
        two loads leaves them 'redundant' (the classifier uses the store
        clock to tell this case apart)."""
        tracer = LoadStoreTracer()
        load = fake_load()
        tracer.on_load(load, 100, 7, activation=1)
        tracer.on_store(load, 100, 7, activation=1)
        tracer.on_load(load, 100, 7, activation=1)
        assert tracer.redundant_loads == 1
        assert tracer.events == [(load, load, True)]  # a store did intervene

    def test_no_store_intervened_flag(self):
        tracer = LoadStoreTracer()
        load = fake_load()
        tracer.on_load(load, 100, 7, activation=1)
        tracer.on_load(load, 100, 7, activation=1)
        assert tracer.events == [(load, load, False)]

    def test_reference_values_compared_by_identity(self):
        tracer = LoadStoreTracer()
        load = fake_load()

        class Ref:  # two equal-looking but distinct heap values
            def __eq__(self, other):
                return True

            def __hash__(self):
                return 0

        tracer.on_load(load, 100, Ref(), activation=1)
        tracer.on_load(load, 100, Ref(), activation=1)
        assert tracer.redundant_loads == 0

    def test_per_instr_counts(self):
        tracer = LoadStoreTracer()
        load = fake_load()
        for _ in range(3):
            tracer.on_load(load, 100, 7, activation=1)
        assert tracer.total_loads == 3
        assert tracer.redundant_loads == 2
        assert tracer.events == [(load, load, False)] * 2


class TestLimitStudyEndToEnd:
    SOURCE = """
    MODULE M;
    TYPE T = OBJECT n: INTEGER; END;
        B = REF ARRAY OF INTEGER;
    VAR t: T; b: B; x: INTEGER;

    PROCEDURE Use () =
    VAR i: INTEGER;
    BEGIN
      i := 0;
      WHILE i < 10 DO
        x := x + t.n;        (* t.n redundant across iterations *)
        x := x + b^[0];      (* dope load redundant too *)
        INC (i);
      END;
    END Use;

    BEGIN
      t := NEW (T, n := 3);
      b := NEW (B, 2);
      Use ();
    END M.
    """

    def test_base_program_has_redundancy(self):
        program = compile_program(self.SOURCE)
        report = program.limit_study(program.base())
        assert report.redundant_loads > 0
        assert 0 < report.redundant_fraction <= 1

    def test_rle_reduces_redundancy(self):
        program = compile_program(self.SOURCE)
        before = program.limit_study(program.base())
        opt = program.optimize("SMFieldTypeRefs")
        after = program.limit_study(opt)
        assert after.redundant_loads < before.redundant_loads

    def test_residue_is_encapsulation(self):
        """After RLE the only redundant loads left are dope accesses."""
        program = compile_program(self.SOURCE)
        opt = program.optimize("SMFieldTypeRefs")
        report = program.limit_study(opt)
        non_dope = sum(
            count
            for cat, count in report.by_category.items()
            if cat is not Category.ENCAPSULATION
        )
        assert report.by_category[Category.ENCAPSULATION] > 0
        assert non_dope == 0

    def test_dope_ablation_removes_encapsulation(self):
        """Extension: when RLE may see dope loads, Encapsulation vanishes."""
        program = compile_program(self.SOURCE)
        opt = program.optimize("SMFieldTypeRefs", see_dope_loads=True)
        report = program.limit_study(opt)
        assert report.by_category[Category.ENCAPSULATION] == 0
