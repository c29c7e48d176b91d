"""Partial-run accounting, tracer event order and run teardown.

The numbers pinned here were computed with the per-instruction dispatch
interpreter the block decoder replaced; they fix three properties of a
run that the end-of-run totals cannot see:

* a counted body instruction is counted *before* it runs (so one that
  traps is counted) and a terminator after its block, and the step
  budget is checked at every terminator, callees' included;
* a trap in the middle of a block leaves exactly the loads, stores and
  cache accesses of the instructions before it;
* the tracer sees every heap event in the same order with the same
  arguments.

A finished interpreter must also hold no reference cycle: the decoded
blocks capture the run's state, and a cycle would keep each run's
simulated heap alive until a full collection.
"""

import gc
import hashlib
import weakref

import pytest

from repro import compile_program
from repro.bench.suite import RunConfig
from repro.lang.errors import ResourceLimitError
from repro.runtime import Interpreter, M3RuntimeError, MachineModel

BUDGET_SOURCE = """
MODULE S;
TYPE T = OBJECT n: INTEGER; END;
VAR t: T; x, i: INTEGER;
PROCEDURE P (k: INTEGER): INTEGER =
BEGIN
  RETURN k + 1;
END P;
BEGIN
  t := NEW (T, n := 1);
  FOR i := 1 TO 1000 DO
    x := P (x) + t.n + x + i;
  END;
  t := NIL;
  x := t.n;
END S.
"""

#: The NIL trap on the last line of this block sits after a call in the
#: same block and before seven more instructions.
MID_BLOCK_SOURCE = """
MODULE P;
TYPE T = OBJECT n: INTEGER; next: T; END;
VAR t, u: T; x, i: INTEGER;
PROCEDURE Sum (p: T): INTEGER =
VAR s: INTEGER;
BEGIN
  s := 0;
  WHILE p # NIL DO
    s := s + p.n;
    p := p.next;
  END;
  RETURN s;
END Sum;
BEGIN
  FOR i := 1 TO 50 DO
    t := NEW (T, n := i, next := t);
  END;
  x := Sum (t);
  PutInt (x);
  u := t.next.next;
  x := x + u.n;
  u := NIL;
  x := t.n + Sum (t.next) + u.n + t.n;
  PutInt (x);
END P.
"""


def _stats_fields(stats):
    return {
        "instructions": stats.instructions,
        "heap_loads": stats.heap_loads,
        "other_loads": stats.other_loads,
        "heap_stores": stats.heap_stores,
        "other_stores": stats.other_stores,
        "calls": stats.calls,
        "allocations": stats.allocations,
        "cycles": stats.cycles,
        "output": stats.output_text(),
    }


@pytest.fixture(scope="module")
def budget_program():
    return compile_program(BUDGET_SOURCE, "budget.m3").base().program


@pytest.mark.parametrize("budget, instructions, calls", [
    # 13 and 40 trip at a terminator of the callee P, which must see the
    # caller's instructions before the call counted (up-front block
    # counting trips them at 32 and 55).
    (13, 19, 2),
    (40, 42, 3),
    (50, 55, 3),
    (101, 105, 5),
    (997, 998, 44),
    (5003, 5004, 218),
])
def test_step_budget_trip_points(budget_program, budget, instructions, calls):
    interp = Interpreter(budget_program, max_steps=budget)
    with pytest.raises(ResourceLimitError) as err:
        interp.run()
    assert err.value.kind == "steps"
    assert (interp.stats.instructions, interp.stats.calls) == (
        instructions, calls)


def test_trap_on_last_line_with_machine(budget_program):
    machine = MachineModel()
    interp = Interpreter(budget_program, machine=machine)
    with pytest.raises(M3RuntimeError, match="NIL dereference"):
        interp.run()
    assert interp.stats.instructions == 23017
    assert interp.stats.heap_loads == 1000


def test_mid_block_trap_leaves_exact_partial_stats():
    program = compile_program(MID_BLOCK_SOURCE, "mid.m3").base().program
    machine = MachineModel()
    interp = Interpreter(program, machine=machine)
    with pytest.raises(M3RuntimeError, match="NIL dereference"):
        interp.run()
    assert _stats_fields(interp.stats) == {
        "instructions": 2087,
        "heap_loads": 202,
        "other_loads": 58,
        "heap_stores": 100,
        "other_stores": 54,
        "calls": 3,
        # A trapped run never reaches the end-of-run totals.
        "allocations": 0,
        "cycles": 0,
        "output": "1275",
    }
    # The partial access log is still replayed through the cache.
    assert (machine.cycles, machine.cache.hits, machine.cache.misses) == (
        550, 388, 26)


class _DigestTracer:
    """Hashes every heap event: kind, address, value, activation and the
    instruction's position (procedure, block in reverse postorder, index
    in block) — instruction uids depend on what else was compiled."""

    def __init__(self, program):
        self.position = {}
        for name, proc in sorted(program.procs.items()):
            for b, block in enumerate(proc.blocks()):
                for i, instr in enumerate(block.instrs):
                    self.position[instr] = "{}:{}:{}".format(name, b, i)
        self.sha = hashlib.sha256()
        self.events = 0

    def _event(self, kind, instr, addr, value, activation):
        self.events += 1
        self.sha.update("{} {} {} {!r} {}\n".format(
            kind, self.position[instr], addr, value, activation).encode())

    def on_load(self, instr, addr, value, activation):
        self._event("L", instr, addr, value, activation)

    def on_store(self, instr, addr, value, activation):
        self._event("S", instr, addr, value, activation)


def _digest(program):
    tracer = _DigestTracer(program)
    Interpreter(program, machine=MachineModel(), tracer=tracer).run()
    return tracer.events, tracer.sha.hexdigest()


def test_tracer_event_stream_demo(demo_program):
    # VAR parameters, WITH and a REF INTEGER cell: indirect loads/stores.
    assert _digest(demo_program.base().program) == (
        71, "a5ef31e3d52bd209fe41a13c4892b1809f75def6df076d2adb6b51409cb1f88d")


def test_tracer_event_stream_bundled(suite):
    # Devirtualized, inlined and RLE-optimized, so uncounted moves run
    # too.  Hoisting off, as when this digest was pinned.
    config = RunConfig(analysis="SMFieldTypeRefs", minv_inline=True,
                       hoist=False)
    assert _digest(suite.build("m3cg", config).program) == (
        19980,
        "b2ec9e7dde0026234b471facd5b4beddbbcebe5d83cc26e8c9290ef2dd99d228")


def test_tracer_event_stream_hoisted(suite):
    # With hoisting on, the order of the loads RLE hoists into a
    # preheader must not follow memory addresses: when it walked the loop
    # body as a set, this digest changed from one process to the next.
    # (Pinned with the block decoder, unlike the other numbers here.)
    config = RunConfig(analysis="SMFieldTypeRefs", minv_inline=True)
    assert _digest(suite.build("format", config).program) == (
        37199,
        "fe77320f9c5ff8323a47fdac16c42703063af94cefca24b9fa6a9b84f2b1c102")


@pytest.mark.parametrize("trap", [False, True], ids=["finished", "trapped"])
def test_finished_interpreter_holds_no_cycle(budget_program, trap):
    gc.collect()
    gc.disable()
    try:
        program = budget_program
        if not trap:
            program = compile_program(MID_BLOCK_SOURCE.replace(
                "u := NIL;", ""), "mid.m3").base().program
        interp = Interpreter(program, machine=MachineModel(),
                             tracer=_DigestTracer(program))
        try:
            interp.run()
        except M3RuntimeError:
            assert trap
        ref = weakref.ref(interp)
        del interp
        assert ref() is None
    finally:
        gc.enable()
