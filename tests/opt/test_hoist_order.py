"""RLE hoisting is a function of the program, not of memory addresses.

A loop's body is a set of blocks hashed by identity, so walking it put
hoisted loads into the preheader in an order that changed from one build
to the next.  Each dynamic benchmark is built twice in one process under
every analysis with and without Minv+Inlining; the two builds must print
the same IR.  Block labels, fresh-allocation roots (``<tmpN:T>``) and
compiler temporaries (``<name.N>``) come from process-global counters,
so they are renamed in order of first appearance before comparing.
"""

import re

import pytest

from repro import compile_program
from repro.analysis import ANALYSIS_NAMES
from repro.bench import registry
from repro.ir.printer import format_program


def canonical_ir(program) -> str:
    labels = {block.name for proc in program.procs.values()
              for block in proc.blocks()}
    label = "|".join(map(re.escape, sorted(labels, key=len, reverse=True)))
    token = re.compile(r"<tmp\d+:|<[a-z_]+\.\d+>|(?<![\w.])(?:{})(?![\w.])"
                       .format(label))
    names = {}
    return token.sub(
        lambda m: names.setdefault(m.group(0), "#{}".format(len(names))),
        format_program(program))


def optimized_builds(name):
    program = compile_program(registry.load_source(name), name)
    return [canonical_ir(program.pipeline.build(
                analysis=analysis, minv_inline=minv_inline).program)
            for analysis in ANALYSIS_NAMES for minv_inline in (False, True)]


@pytest.mark.parametrize("name", registry.dynamic_benchmark_names())
def test_two_builds_print_the_same_ir(name):
    assert optimized_builds(name) == optimized_builds(name)
