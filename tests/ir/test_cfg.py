"""CFG structure tests: reverse postorder, predecessors, reachability."""

from repro.ir import instructions as ins
from repro.ir.cfg import BasicBlock
from repro.ir.lowering import lower_program


def lower(body, decls="VAR x: INTEGER;"):
    return lower_program("MODULE M; {} BEGIN {} END M.".format(decls, body))


def test_entry_first_in_rpo():
    program = lower("IF x = 1 THEN x := 2; ELSE x := 3; END;")
    blocks = program.main.blocks()
    assert blocks[0] is program.main.entry


def test_blocks_only_reachable():
    # code after RETURN is unreachable and must not appear
    program = lower("RETURN; x := 1;")
    for block in program.main.blocks():
        for instr in block.all_instrs():
            assert not (isinstance(instr, ins.StoreVar) and instr.symbol.name == "x")


def test_predecessors_inverse_of_successors():
    program = lower("WHILE x < 3 DO IF x = 1 THEN x := 2; END; END;")
    proc = program.main
    preds = proc.predecessors()
    for block in proc.blocks():
        for succ in block.successors():
            assert block in preds[succ]
    for block, plist in preds.items():
        for p in plist:
            assert block in p.successors()


def test_terminated_block_rejects_append():
    import pytest

    block = BasicBlock("b")
    block.terminate(ins.Return(None))
    with pytest.raises(AssertionError):
        block.append(ins.ConstInstr(ins.Temp(0), 1))


def test_double_terminate_rejected():
    import pytest

    block = BasicBlock("b")
    block.terminate(ins.Return(None))
    with pytest.raises(AssertionError):
        block.terminate(ins.Return(None))


def test_heap_loads_and_stores_listing():
    program = lower(
        "t.n := t.n + 1;",
        "TYPE T = OBJECT n: INTEGER; END; VAR t: T; x: INTEGER;",
    )
    proc = program.main
    assert len(proc.heap_loads()) == 1
    assert len(proc.heap_stores()) == 1


def test_program_all_instrs_spans_procs():
    program = lower_program(
        """
        MODULE M;
        VAR x: INTEGER;
        PROCEDURE P () = BEGIN x := 1; END P;
        BEGIN P (); END M.
        """
    )
    instrs = list(program.all_instrs())
    assert len(instrs) == len(set(map(id, instrs)))
    assert program.proc_order == ["P", "<main>"]
