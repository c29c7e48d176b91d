"""IR well-formedness verifier.

Run after lowering and after every optimization pass (the test suite
does) to catch structural corruption early:

* every reachable block has exactly one terminator and a label no
  other reachable block of the procedure has;
* branch/jump targets are reachable blocks of the same procedure;
* every temp is written before it is read on every path (conservatively:
  checked along the reverse-postorder with merge-intersection, like a
  definite-assignment analysis over registers);
* temp indices are within the procedure's ``n_temps``;
* memory instructions carry access paths;
* the entry block has no predecessors inside the procedure... unless a
  loop legitimately targets it, in which case a preheader split must
  have kept ``proc.entry`` correct (we verify ``proc.entry`` is in the
  block list).
"""

from typing import Dict, List, Set

from repro.ir import instructions as ins
from repro.ir.cfg import BasicBlock, ProcIR, ProgramIR


class IRVerificationError(AssertionError):
    """The IR violates a structural invariant."""


def verify_program(program: ProgramIR) -> None:
    """Verify every procedure; raises IRVerificationError on failure."""
    for proc in program.user_procs():
        verify_proc(proc)


def verify_proc(proc: ProcIR) -> None:
    blocks = proc.blocks()
    block_set = set(map(id, blocks))

    if id(proc.entry) not in block_set:
        raise IRVerificationError(
            "{}: entry block not in reachable set".format(proc.name)
        )

    labels: Set[str] = set()
    for block in blocks:
        if block.name in labels:
            raise IRVerificationError(
                "{}: two blocks labelled {}".format(proc.name, block.name))
        labels.add(block.name)
        _verify_block(proc, block, block_set)

    _verify_definite_assignment(proc, blocks)


def _verify_block(proc: ProcIR, block: BasicBlock, block_set: Set[int]) -> None:
    if block.terminator is None:
        raise IRVerificationError(
            "{}: block {} lacks a terminator".format(proc.name, block.name)
        )
    for instr in block.instrs:
        if instr.is_terminator:
            raise IRVerificationError(
                "{}: terminator {} in the middle of {}".format(
                    proc.name, instr, block.name
                )
            )
        _verify_instr(proc, block, instr)
    terminator = block.terminator
    for succ in terminator.successors:  # type: ignore[attr-defined]
        if id(succ) not in block_set:
            raise IRVerificationError(
                "{}: {} targets unknown block {}".format(
                    proc.name, block.name, succ.name
                )
            )


def _verify_instr(proc: ProcIR, block: BasicBlock, instr: ins.Instr) -> None:
    for temp in list(instr.sources) + ([instr.dest] if instr.dest else []):
        if temp.index < 0 or temp.index >= proc.n_temps:
            raise IRVerificationError(
                "{}: temp {} out of range in {} ({})".format(
                    proc.name, temp, block.name, instr
                )
            )
    if (instr.is_heap_load or instr.is_heap_store) and instr.ap is None:
        raise IRVerificationError(
            "{}: memory instruction {} without an access path".format(
                proc.name, instr
            )
        )


def _verify_definite_assignment(proc: ProcIR, blocks: List[BasicBlock]) -> None:
    """Every temp read must be preceded by a write on all paths."""
    full = (1 << proc.n_temps) - 1 if proc.n_temps else 0
    defined_in: Dict[BasicBlock, int] = {b: full for b in blocks}
    defined_in[proc.entry] = 0
    preds = proc.predecessors()

    def block_out(block: BasicBlock, mask: int) -> int:
        for instr in block.all_instrs():
            for src in instr.sources:
                if not (mask >> src.index) & 1:
                    raise IRVerificationError(
                        "{}: {} reads {} before any write in {}".format(
                            proc.name, instr, src, block.name
                        )
                    )
            if instr.dest is not None:
                mask |= 1 << instr.dest.index
        return mask

    # Fixpoint on the definition sets first (reads checked on final pass).
    outs: Dict[BasicBlock, int] = {}
    changed = True
    while changed:
        changed = False
        for block in blocks:
            if block is not proc.entry and preds[block]:
                new_in = full
                for p in preds[block]:
                    new_in &= outs.get(p, full)
                if new_in != defined_in[block]:
                    defined_in[block] = new_in
                    changed = True
            mask = defined_in[block]
            for instr in block.all_instrs():
                if instr.dest is not None:
                    mask |= 1 << instr.dest.index
            if outs.get(block) != mask:
                outs[block] = mask
                changed = True

    for block in blocks:
        block_out(block, defined_in[block])
