"""IR verifier tests: all passes keep the IR well-formed."""

import pytest

from repro.ir import instructions as ins
from repro.ir.cfg import BasicBlock
from repro.ir.lowering import lower_program
from repro.ir.verify import IRVerificationError, verify_proc, verify_program
from repro.bench import registry
from repro.bench.suite import RunConfig


def lower(body, decls="VAR x: INTEGER;"):
    return lower_program("MODULE M; {} BEGIN {} END M.".format(decls, body))


def test_lowered_code_verifies():
    program = lower(
        """
        WHILE x < 3 DO
          IF x = 1 THEN x := 2; ELSE x := x + 1; END;
        END;
        """
    )
    verify_program(program)


def test_missing_terminator_detected():
    program = lower("x := 1;")
    program.main.entry.terminator = None
    with pytest.raises(IRVerificationError):
        verify_proc(program.main)


def test_read_before_write_detected():
    program = lower("x := 1;")
    ghost = ins.Temp(program.main.n_temps - 1)
    bad = ins.Temp(program.main.n_temps)
    program.main.n_temps += 1
    program.main.entry.instrs.insert(0, ins.Move(ghost, bad))
    with pytest.raises(IRVerificationError):
        verify_proc(program.main)


def test_out_of_range_temp_detected():
    program = lower("x := 1;")
    wild = ins.Temp(10_000)
    program.main.entry.instrs.append(ins.ConstInstr(wild, 0))
    with pytest.raises(IRVerificationError):
        verify_proc(program.main)


def test_repeated_label_detected():
    program = lower("IF x = 1 THEN x := 2; END;")
    first, second = program.main.blocks()[1:3]
    second.name = first.name
    with pytest.raises(IRVerificationError, match="two blocks labelled"):
        verify_proc(program.main)


def test_unknown_target_detected():
    program = lower("x := 1;")
    orphan = BasicBlock("orphan")
    orphan.terminate(ins.Return(None))
    block = program.main.blocks()[0]
    block.terminator = ins.Jump(orphan)
    # orphan is now reachable, so insert a target that is NOT:
    secret = BasicBlock("secret")
    secret.terminate(ins.Return(None))
    orphan.terminator = ins.Branch(ins.Temp(0), secret, orphan)
    # branch reads t0 which may be unwritten — ensure t0 exists & written
    program.main.entry.instrs.insert(0, ins.ConstInstr(ins.Temp(0), True))
    verify_proc(program.main)  # all reachable now — fine


@pytest.mark.parametrize("name", registry.benchmark_names())
def test_benchmarks_verify_after_lowering(suite, name):
    from repro.ir.lowering import lower_module

    verify_program(lower_module(suite.program(name).checked))


@pytest.mark.parametrize("name", registry.benchmark_names())
@pytest.mark.parametrize(
    "config",
    [
        RunConfig(analysis="SMFieldTypeRefs"),
        RunConfig(analysis="TypeDecl", hoist=False),
        RunConfig(minv_inline=True),
        RunConfig(analysis="SMFieldTypeRefs", minv_inline=True),
        RunConfig(analysis="SMFieldTypeRefs", see_dope_loads=True),
    ],
    ids=["rle", "rle-nohoist", "minv", "all", "dope"],
)
def test_benchmarks_verify_after_optimization(suite, name, config):
    result = suite.build(name, config)
    verify_program(result.program)
