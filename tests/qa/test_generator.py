"""Generator contract: deterministic, bounded, type-correct output."""

import hashlib

import pytest

from repro import compile_program
from repro.qa.generator import GenConfig, GeneratedProgram, generate_program


def test_deterministic_per_seed():
    assert generate_program(7).render() == generate_program(7).render()
    assert generate_program(7).render() != generate_program(8).render()


def test_output_pinned_across_500_seeds():
    # The seed-1 programs of the e2e ``corpus_run`` workload, byte for
    # byte: speeding the generator up must keep every RNG draw in order.
    digest = hashlib.sha256()
    for seed in range(100000, 100500):
        digest.update(generate_program(seed).render().encode())
    assert digest.hexdigest() == (
        "c3c73c10469217644080dd08e9b956558446c7aac0c686c8f2b0ee69e205e650")


def test_name_carries_seed():
    prog = generate_program(42)
    assert prog.seed == 42
    assert prog.name == "Fuzz42"
    assert "MODULE Fuzz42;" in prog.render()
    assert prog.render().rstrip().endswith("END Fuzz42.")


@pytest.mark.parametrize("seed", range(25))
def test_generated_programs_compile(seed):
    # The generator's core contract: type-correct by construction.
    compile_program(generate_program(seed).render())


def test_size_bound_respected():
    tight = GenConfig(max_stmts=6, max_procs=0)
    for seed in range(10):
        prog = generate_program(seed, tight)
        assert not prog.procs
        # body is bounded; prologue/epilogue add allocations + checksum
        assert len(prog.body) <= 6
        compile_program(prog.render())


def test_with_parts_copies():
    prog = generate_program(3)
    smaller = prog.with_parts(body=prog.body[:1])
    assert len(smaller.body) == 1
    assert len(prog.body) > 1  # original untouched
    assert smaller.type_decls == prog.type_decls
    assert smaller.statement_count() < prog.statement_count()


def test_statement_count():
    prog = generate_program(0)
    assert prog.statement_count() == (
        len(prog.prologue) + len(prog.body) + len(prog.epilogue)
    )


def test_programs_terminate():
    from repro.runtime import Interpreter
    from repro.runtime.values import M3RuntimeError

    # Bounded FOR loops and call-free procedures: every program halts
    # well inside a modest step budget (traps are fine, hangs are not).
    for seed in range(15):
        program = compile_program(generate_program(seed).render())
        try:
            Interpreter(program.base().program, max_steps=400_000).run()
        except M3RuntimeError:
            pass  # NIL trap: tolerated, still terminated
