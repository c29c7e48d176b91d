#!/usr/bin/env python
"""Watch RLE transform a procedure, instruction by instruction.

Compiles a list-summing program, dumps the IR of the hot procedure before
and after redundant load elimination, and reports what moved:

* the loop-invariant load ``header.limit`` is hoisted to a preheader;
* the repeated ``node.value`` load inside one iteration is CSE'd;
* loads killed by the may-aliased store stay (and the static status the
  limit study consumes says why).

Run:  python examples/optimize_program.py
"""

from repro import compile_program
from repro.ir.printer import format_proc
from repro.runtime.limit import STATUS_ELIMINATED

SOURCE = """
MODULE Walker;

TYPE
  Node = OBJECT value: INTEGER; next: Node; END;
  List = OBJECT head: Node; limit: INTEGER; total: INTEGER; END;

VAR list: List;

PROCEDURE Sum (l: List): INTEGER =
VAR n: Node; s: INTEGER;
BEGIN
  n := l.head;
  s := 0;
  WHILE n # NIL DO
    (* l.limit is loop-invariant: hoistable.
       n.value is loaded twice per iteration: CSE removes the second.
       l.total is stored, so loads of it cannot be cached across the
       store unless the paths are proven independent. *)
    IF n.value < l.limit THEN
      s := s + n.value;
    END;
    l.total := s;
    n := n.next;
  END;
  RETURN s;
END Sum;

VAR i: INTEGER;

BEGIN
  list := NEW (List, limit := 50);
  FOR i := 1 TO 60 DO
    list.head := NEW (Node, value := i, next := list.head);
  END;
  PutInt (Sum (list));
END Walker.
"""


def main() -> None:
    program = compile_program(SOURCE, "walker.m3")

    base = program.base()
    print("=== Sum before RLE ===")
    print(format_proc(base.program.procs["Sum"]))

    optimized = program.optimize("SMFieldTypeRefs")
    print("\n=== Sum after RLE (SMFieldTypeRefs) ===")
    print(format_proc(optimized.program.procs["Sum"]))

    assert optimized.rle is not None
    print("\nRLE statistics:")
    print("  eliminated loads:", optimized.rle.eliminated_loads)
    print("  hoisted paths   :", optimized.rle.hoisted_paths)
    eliminated = [
        instr for instr, st in optimized.rle.load_status.items() if st == STATUS_ELIMINATED
    ]
    print("  eliminated at   :", ", ".join(
        "{} ({})".format(instr.ap, instr.loc) for instr in eliminated))

    base_stats = program.run(base)
    opt_stats = program.run(optimized)
    print("\nExecution (simulated Alpha-style machine):")
    print("  output    :", base_stats.output_text())
    print("  heap loads: {} -> {}".format(base_stats.heap_loads, opt_stats.heap_loads))
    print(
        "  cycles    : {} -> {}  ({:.1f}% faster)".format(
            base_stats.cycles,
            opt_stats.cycles,
            100.0 * (1 - opt_stats.cycles / base_stats.cycles),
        )
    )
    assert base_stats.output_text() == opt_stats.output_text()


if __name__ == "__main__":
    main()
