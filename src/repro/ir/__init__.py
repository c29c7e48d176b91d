"""Typed intermediate representation for MiniM3.

The IR is a conventional three-address, basic-block CFG form with one
paper-specific twist: every heap memory instruction carries the *access
path* (:mod:`repro.ir.access_path`) it realises, because TBAA and RLE both
reason about lexical access paths (Table 1 of the paper), not raw
addresses.

Modules:

* :mod:`repro.ir.access_path` — the AP algebra (Qualify / Deref /
  Subscript over variable roots);
* :mod:`repro.ir.instructions` — instruction set; each class declares
  its operands once (annotated fields and a print template), and its
  constructor, ``sources``, ``clone`` and printed form derive from that;
* :mod:`repro.ir.cfg` — basic blocks, per-procedure CFGs, the whole-program
  :class:`~repro.ir.cfg.ProgramIR`;
* :mod:`repro.ir.lowering` — AST → IR (incl. implicit dope-vector loads
  for open arrays);
* :mod:`repro.ir.dominators`, :mod:`repro.ir.loops` — dominator tree and
  natural-loop detection used by the load hoister;
* :mod:`repro.ir.printer` — human-readable IR dumps.
"""

from repro.ir.access_path import (
    AccessPath,
    VarRoot,
    FreshRoot,
    Qualify,
    Deref,
    Subscript,
    ConstIndex,
    VarIndex,
    UnknownIndex,
    strip_index,
)
from repro.ir.cfg import BasicBlock, ProcIR, ProgramIR
from repro.ir.lowering import lower_module, lower_program
from repro.ir.dominators import DominatorTree
from repro.ir.loops import NaturalLoop, find_natural_loops
from repro.ir.printer import format_proc, format_program
from repro.ir.verify import verify_proc, verify_program, IRVerificationError

__all__ = [
    "AccessPath",
    "VarRoot",
    "FreshRoot",
    "strip_index",
    "Qualify",
    "Deref",
    "Subscript",
    "ConstIndex",
    "VarIndex",
    "UnknownIndex",
    "BasicBlock",
    "ProcIR",
    "ProgramIR",
    "lower_module",
    "lower_program",
    "DominatorTree",
    "NaturalLoop",
    "find_natural_loops",
    "format_proc",
    "format_program",
    "verify_proc",
    "verify_program",
    "IRVerificationError",
]
