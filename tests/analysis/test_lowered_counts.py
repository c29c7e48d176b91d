"""Table 5 over the lowered IR equals Table 5 over the base program.

:meth:`repro.Program.alias_pairs` counts over :meth:`~repro.Program.lowered`
and skips the back end's CSE.  That CSE drops a load only when the same
access path is already available in its block, so each procedure's set
of distinct heap references does not change.  This differential pins
that: the bundled programs and 200 generated ones, both worlds, all
three analyses, against the reference engine over ``program.base()``.
"""

import pytest

from repro import compile_program
from repro.analysis import ANALYSIS_NAMES, AliasPairCounter
from repro.bench import registry
from repro.bench.suite import BASE
from repro.ir.printer import format_program
from repro.qa.generator import generate_program

FUZZ_SEEDS = 200


def _assert_same_counts(program, base_ir):
    for analysis in ANALYSIS_NAMES:
        for open_world in (False, True):
            lowered = program.alias_pairs(analysis, open_world=open_world)
            base = AliasPairCounter(
                base_ir, program.analysis(analysis, open_world=open_world),
                engine="reference").count()
            assert lowered.counts() == base.counts(), (analysis, open_world)


@pytest.mark.parametrize("name", registry.benchmark_names())
def test_bundled_program_counts_equal_base_counts(suite, name):
    _assert_same_counts(suite.program(name), suite.build(name, BASE).program)


def test_generated_program_counts_equal_base_counts():
    for seed in range(FUZZ_SEEDS):
        generated = generate_program(seed)
        program = compile_program(generated.render(), generated.name)
        _assert_same_counts(program, program.base().program)


def test_lowered_ir_is_built_once_and_left_alone():
    program = compile_program(registry.load_source("slisp"), "slisp")
    lowered = program.lowered()
    before = format_program(lowered)
    program.alias_pairs("SMFieldTypeRefs")
    program.base()
    program.optimize("SMFieldTypeRefs", minv_inline=True)
    assert program.lowered() is lowered
    assert format_program(lowered) == before
