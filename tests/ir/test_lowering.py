"""Lowering tests: instruction selection, APs, dope vectors, handles."""

import pytest

from repro.ir import instructions as ins
from repro.ir.lowering import lower_program
from repro.lang.errors import CompileError


def lower(body, decls=""):
    return lower_program(
        "MODULE M; {} BEGIN {} END M.".format(decls, body)
    )


def main_instrs(program):
    return list(program.main.all_instrs())


def find(program, cls):
    return [i for i in main_instrs(program) if isinstance(i, cls)]


DECLS = """
TYPE
  T = OBJECT f: T; n: INTEGER; END;
  B = REF ARRAY OF CHAR;
  F = REF ARRAY [0..7] OF INTEGER;
  R = REF RECORD a: INTEGER; END;
  C = REF INTEGER;
VAR t: T; b: B; fixed: F; r: R; c: C; x: INTEGER; ch: CHAR;
"""


class TestMemoryInstructions:
    def test_field_load_has_ap(self):
        program = lower("x := t.n;", DECLS)
        (load,) = find(program, ins.LoadField)
        assert str(load.ap) == "t.n"

    def test_field_store(self):
        program = lower("t.n := 3;", DECLS)
        (store,) = find(program, ins.StoreField)
        assert str(store.ap) == "t.n"

    def test_chained_fields(self):
        program = lower("x := t.f.n;", DECLS)
        loads = find(program, ins.LoadField)
        assert [str(i.ap) for i in loads] == ["t.f", "t.f.n"]

    def test_open_array_load_emits_dope(self):
        program = lower("ch := b^[x];", DECLS)
        dopes = find(program, ins.LoadDopeData)
        elems = find(program, ins.LoadElem)
        assert len(dopes) == 1 and len(elems) == 1
        assert str(elems[0].ap) == "b^[x]"
        assert dopes[0].is_dope

    def test_fixed_array_no_dope(self):
        program = lower("x := fixed^[2];", DECLS)
        assert not find(program, ins.LoadDopeData)
        (elem,) = find(program, ins.LoadElem)
        assert str(elem.ap) == "fixed^[2]"

    def test_number_open_array(self):
        program = lower("x := NUMBER (b^);", DECLS)
        (count,) = find(program, ins.LoadDopeCount)
        assert count.is_dope

    def test_number_fixed_array_is_constant(self):
        program = lower("x := NUMBER (fixed^);", DECLS)
        assert not find(program, ins.LoadDopeCount)
        consts = [i for i in find(program, ins.ConstInstr) if i.value == 8]
        assert consts

    def test_record_deref_field(self):
        program = lower("x := r^.a;", DECLS)
        (load,) = find(program, ins.LoadField)
        assert str(load.ap) == "r^.a"

    def test_scalar_deref_uses_loadind(self):
        program = lower("x := c^; c^ := 1;", DECLS)
        assert len(find(program, ins.LoadInd)) == 1
        assert len(find(program, ins.StoreInd)) == 1


class TestAllocation:
    def test_new_object(self):
        program = lower("t := NEW (T);", DECLS)
        assert len(find(program, ins.NewObject)) == 1

    def test_new_object_field_inits_store(self):
        program = lower("t := NEW (T, n := 3);", DECLS)
        (store,) = find(program, ins.StoreField)
        assert store.field == "n"

    def test_new_open_array(self):
        program = lower("b := NEW (B, 16);", DECLS)
        assert len(find(program, ins.NewOpenArray)) == 1

    def test_new_fixed_array(self):
        program = lower("fixed := NEW (F);", DECLS)
        assert len(find(program, ins.NewFixedArray)) == 1

    def test_new_record_and_cell(self):
        program = lower("r := NEW (R); c := NEW (C);", DECLS)
        assert len(find(program, ins.NewRecord)) == 2


class TestControlFlow:
    def test_if_creates_branch(self):
        program = lower("IF x = 1 THEN x := 2; END;", DECLS)
        branches = [
            blk.terminator
            for blk in program.main.blocks()
            if isinstance(blk.terminator, ins.Branch)
        ]
        assert branches

    def test_while_loop_shape(self):
        program = lower("WHILE x < 3 DO x := x + 1; END;", DECLS)
        blocks = program.main.blocks()
        # at least entry, header, body, exit
        assert len(blocks) >= 4

    def test_for_lowering_uses_shadow_bound(self):
        program = lower("FOR i := 0 TO 9 DO x := x + i; END;", DECLS)
        assert any(s.name.startswith("<for_hi.") for s in program.main.variables)

    def test_exit_jumps_out(self):
        program = lower("LOOP EXIT; END; x := 1;", DECLS)
        # Must terminate and reach the trailing assignment.
        names = [i for i in main_instrs(program) if isinstance(i, ins.StoreVar)]
        assert any(s.symbol.name == "x" for s in names)

    def test_short_circuit_and(self):
        program = lower("IF x > 0 AND t.n > 0 THEN x := 1; END;", DECLS)
        # t.n load must be control-dependent: there is more than one branch
        branches = [
            blk.terminator
            for blk in program.main.blocks()
            if isinstance(blk.terminator, ins.Branch)
        ]
        assert len(branches) >= 2

    def test_case_lowering(self):
        program = lower(
            "CASE x OF | 1 => ch := 'a'; | 2, 3 => ch := 'b'; ELSE ch := 'c'; END;",
            DECLS,
        )
        # all arms produce stores of ch
        stores = [i for i in main_instrs(program) if isinstance(i, ins.StoreVar)]
        assert sum(1 for s in stores if s.symbol.name == "ch") == 3


class TestHandles:
    PROC_DECLS = DECLS + """
    PROCEDURE Bump (VAR v: INTEGER) =
    BEGIN
      v := v + 1;
    END Bump;
    """

    def test_var_arg_of_variable_uses_addrvar(self):
        program = lower("Bump (x);", self.PROC_DECLS)
        assert find(program, ins.AddrVar)

    def test_var_arg_of_field_uses_addrfield(self):
        program = lower("Bump (t.n);", self.PROC_DECLS)
        assert find(program, ins.AddrField)

    def test_var_arg_of_element_uses_addrelem(self):
        program = lower("Bump (fixed^[1]);", self.PROC_DECLS)
        assert find(program, ins.AddrElem)

    def test_var_arg_of_scalar_deref_passes_cell(self):
        program = lower("Bump (c^);", self.PROC_DECLS)
        # no Addr* needed: the cell itself is the handle
        assert not find(program, ins.AddrVar)
        assert not find(program, ins.AddrField)

    def test_var_param_access_is_indirect(self):
        program = lower("Bump (x);", self.PROC_DECLS)
        bump = program.procs["Bump"]
        loads = [i for i in bump.all_instrs() if isinstance(i, ins.LoadInd)]
        stores = [i for i in bump.all_instrs() if isinstance(i, ins.StoreInd)]
        assert loads and stores
        assert str(loads[0].ap) == "v^"

    def test_with_location_binding_records_target(self):
        program = lower("WITH w = t.n DO w := 3; END;", DECLS)
        assert program.main.handle_targets
        (info,) = program.main.handle_targets.values()
        assert info[0] == "heap"

    def test_with_value_binding_plain_var(self):
        program = lower("WITH w = x + 1 DO t.n := w; END;", DECLS)
        assert not program.main.handle_targets

    def test_call_var_args_recorded(self):
        program = lower("Bump (x);", self.PROC_DECLS)
        (call,) = find(program, ins.Call)
        var_args = getattr(call, "var_args")
        assert 0 in var_args
        assert var_args[0][0] == "var"


class TestCallsAndBuiltins:
    def test_method_call(self):
        program = lower_program(
            """
            MODULE M;
            TYPE T = OBJECT METHODS m (): INTEGER := P; END;
            VAR t: T; x: INTEGER;
            PROCEDURE P (self: T): INTEGER = BEGIN RETURN 1; END P;
            BEGIN x := t.m (); END M.
            """
        )
        calls = [i for i in program.main.all_instrs() if isinstance(i, ins.CallMethod)]
        assert len(calls) == 1
        assert calls[0].method_name == "m"

    def test_inc_is_read_modify_write(self):
        program = lower("INC (t.n);", DECLS)
        assert len(find(program, ins.LoadField)) == 1
        assert len(find(program, ins.StoreField)) == 1

    def test_inc_with_delta(self):
        program = lower("INC (x, 5);", DECLS)
        binops = find(program, ins.BinOp)
        assert any(i.op == "+" for i in binops)

    def test_builtin_lowering(self):
        program = lower('PutText ("x" & IntToText (ORD (ch)));', DECLS)
        builtins = {i.name for i in find(program, ins.Builtin)}
        assert {"PutText", "TextCat", "IntToText", "ORD"} <= builtins

    def test_return_terminator_added(self):
        program = lower("x := 1;", DECLS)
        terminators = [b.terminator for b in program.main.blocks()]
        assert any(isinstance(t, ins.Return) for t in terminators)


class TestGlobalInits:
    def test_global_initialisers_in_main_preamble(self):
        program = lower_program(
            """
            MODULE M;
            VAR x: INTEGER := 42;
            VAR y: INTEGER;
            BEGIN y := x; END M.
            """
        )
        first = program.main.entry.instrs
        stores = [i for i in first if isinstance(i, ins.StoreVar)]
        assert stores and stores[0].symbol.name == "x"


class TestPurity:
    """Lowering is a function of the checked module."""

    BODY = """
        x := NEW (T).n;
        ch := b^[x + 1];
        b^[x * 2] := ch;
        WHILE x < 3 DO INC (x); END;
    """

    def test_two_lowerings_of_one_module_share_their_paths(self):
        from repro.ir.access_path import FreshRoot, Subscript, UnknownIndex
        from repro.ir.lowering import lower_module
        from repro.ir.printer import format_program
        from repro.lang.parser import parse_module
        from repro.lang.typecheck import check_module

        checked = check_module(parse_module(
            "MODULE M; {} BEGIN {} END M.".format(DECLS, self.BODY)))
        first, second = lower_module(checked), lower_module(checked)
        paths = [[i.ap for i in program.all_instrs() if i.ap is not None]
                 for program in (first, second)]
        assert len(paths[0]) == len(paths[1])
        assert all(p is q for p, q in zip(*paths))
        assert any(isinstance(p.root(), FreshRoot) for p in paths[0])
        assert any(isinstance(p, Subscript) and isinstance(p.index, UnknownIndex)
                   for p in paths[0])
        assert format_program(first) == format_program(second)
