"""Human-readable IR dumps (for debugging and the examples)."""

from typing import List

from repro.ir import instructions as ins
from repro.ir.cfg import ProcIR, ProgramIR


def format_instr(instr: ins.Instr) -> str:
    """One-line rendering of a single instruction: its class's ``text``
    over its operands.  A register list prints as ``a, b``, an absent
    register as nothing, and a ``dest`` that may be absent as the
    prefix ``dest := ``."""
    if not instr._shown:
        return instr.text.format_map(instr.__dict__)
    values = dict(instr.__dict__)
    for name, many in instr._shown:
        value = values[name]
        if many:
            values[name] = ", ".join(map(str, value))
        elif value is None:
            values[name] = ""
        elif name == "dest":
            values[name] = "{} := ".format(value)
    return instr.text.format_map(values)


def format_proc(proc: ProcIR) -> str:
    """Multi-line rendering of a procedure's CFG."""
    lines: List[str] = ["proc {} (temps={})".format(proc.name, proc.n_temps)]
    for block in proc.blocks():
        lines.append("  {}:".format(block.name))
        for instr in block.all_instrs():
            lines.append("    {}".format(format_instr(instr)))
    return "\n".join(lines)


def format_program(program: ProgramIR) -> str:
    return "\n\n".join(format_proc(p) for p in program.user_procs())
