"""Procedure inlining (the "+Inlining" of Figure 11).

Inlines *direct* calls (run :class:`~repro.opt.methodres.MethodResolution`
first so devirtualized method calls qualify) when the callee is small and
non-recursive.  Inlining by itself removes only call overhead; its real
value in the paper is exposing redundant loads across what used to be a
procedure boundary — RLE never eliminates loads across calls, so the
pipeline runs inlining *before* RLE.

Mechanics: the callee's blocks are cloned (fresh instructions, fresh
temps), parameters become explicit ``StoreVar`` bindings (VAR parameters
just receive the handle), RETURNs become jumps to a continuation block,
and the callee's variables join the caller's ``ProcIR.variables`` so
its frames hold them.
"""

from typing import Dict, Optional, Set

from repro.analysis.callgraph import CallGraph
from repro.ir import instructions as ins
from repro.ir.cfg import BasicBlock, ProcIR, ProgramIR
from repro.lang.symtab import Symbol
from repro.lang.typecheck import MAIN_PROC


class InlineStats:
    def __init__(self) -> None:
        self.inlined_calls = 0
        self.candidate_calls = 0

    def __repr__(self) -> str:
        return "<InlineStats {}/{} inlined>".format(
            self.inlined_calls, self.candidate_calls
        )


class Inliner:
    """One inlining pass over the whole program."""

    #: Callees with more instructions than this are never inlined.
    DEFAULT_MAX_CALLEE_SIZE = 60

    def __init__(
        self,
        program: ProgramIR,
        max_callee_size: int = DEFAULT_MAX_CALLEE_SIZE,
    ):
        self.program = program
        self.max_callee_size = max_callee_size
        self.stats = InlineStats()
        self._recursive = self._find_recursive()

    def run(self) -> InlineStats:
        for proc in self.program.user_procs():
            self._inline_in_proc(proc)
        return self.stats

    # ------------------------------------------------------------------

    def _find_recursive(self) -> Set[str]:
        """Procedures that can (transitively) call themselves."""
        graph = CallGraph(self.program)
        recursive: Set[str] = set()
        for name in self.program.proc_order:
            seen: Set[str] = set()
            stack = list(graph.callees[name])
            while stack:
                callee = stack.pop()
                if callee == name:
                    recursive.add(name)
                    break
                if callee in seen:
                    continue
                seen.add(callee)
                stack.extend(graph.callees.get(callee, ()))
        return recursive

    def _proc_size(self, proc: ProcIR) -> int:
        return sum(1 for _ in proc.all_instrs())

    def _inlinable(self, callee_name: str) -> bool:
        if callee_name == MAIN_PROC or callee_name in self._recursive:
            return False
        callee = self.program.procs.get(callee_name)
        if callee is None:
            return False
        return self._proc_size(callee) <= self.max_callee_size

    # ------------------------------------------------------------------

    def _inline_in_proc(self, proc: ProcIR) -> None:
        # Snapshot the block list; inlining appends new blocks.
        for block in list(proc.blocks()):
            self._inline_in_block(proc, block)

    def _inline_in_block(self, proc: ProcIR, block: BasicBlock) -> None:
        i = 0
        while i < len(block.instrs):
            instr = block.instrs[i]
            if isinstance(instr, ins.Call):
                self.stats.candidate_calls += 1
                if self._inlinable(instr.proc_name) and proc.name != instr.proc_name:
                    continuation = self._inline_site(proc, block, i, instr)
                    self.stats.inlined_calls += 1
                    # Continue scanning in the continuation block.
                    block = continuation
                    i = 0
                    continue
            i += 1

    def _inline_site(
        self,
        caller: ProcIR,
        block: BasicBlock,
        call_index: int,
        call: ins.Call,
    ) -> BasicBlock:
        callee = self.program.procs[call.proc_name]

        # Split the caller block around the call.
        continuation = caller.new_block("inl_cont")
        continuation.instrs = block.instrs[call_index + 1 :]
        continuation.terminator = block.terminator
        block.instrs = block.instrs[:call_index]
        block.terminator = None

        # Bind parameters: value params receive the value, VAR params the
        # handle — a plain StoreVar either way.
        for symbol, arg in zip(callee.checked.params, call.args):
            bind = ins.StoreVar(symbol, arg, call.loc)
            bind.counted = False  # register-to-register argument move
            block.append(bind)

        ret_shadow: Optional[Symbol] = None
        if call.dest is not None:
            ret_shadow = caller.new_shadow("inl_ret", callee.checked.result)

        body_entry = self._clone_body(caller, callee, continuation, ret_shadow)
        block.terminate(ins.Jump(body_entry, call.loc))

        if call.dest is not None:
            assert ret_shadow is not None
            fetch = ins.LoadVar(call.dest, ret_shadow, call.loc)
            fetch.counted = False  # result is already in a register
            continuation.instrs.insert(0, fetch)

        # The caller's frames must hold the callee's variables.
        known = set(caller.variables)
        caller.variables.extend(s for s in callee.variables if s not in known)
        caller.handle_targets.update(callee.handle_targets)
        return continuation

    # ------------------------------------------------------------------

    def _clone_body(
        self,
        caller: ProcIR,
        callee: ProcIR,
        continuation: BasicBlock,
        ret_shadow: Optional[Symbol],
    ) -> BasicBlock:
        """Clone the callee CFG into the caller; returns the cloned entry."""
        # Old block or temp -> its copy; temps are numbered on first use.
        callee_blocks = callee.blocks()
        copies: Dict[object, object] = {
            old: caller.new_block("inl_{}.".format(old.name))
            for old in callee_blocks
        }

        def remap(operand):
            new = copies.get(operand)
            if new is None:
                new = copies[operand] = caller.new_temp()
            return new

        for old in callee_blocks:
            new_block = copies[old]
            new_block.instrs = [instr.clone(remap) for instr in old.instrs]
            terminator = old.terminator
            assert terminator is not None
            if isinstance(terminator, ins.Return):
                if terminator.value is not None and ret_shadow is not None:
                    put = ins.StoreVar(ret_shadow, remap(terminator.value), terminator.loc)
                    put.counted = False  # result register move
                    new_block.instrs.append(put)
                new_block.terminate(ins.Jump(continuation, terminator.loc))
            else:
                new_block.terminate(terminator.clone(remap))
        return copies[callee.entry]
