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
and the callee's local symbols are registered with the caller so frames
initialise them.
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

        # The caller's frames must initialise the callee's symbols.
        known = set(caller.checked.all_symbols)
        for symbol in callee.checked.all_symbols:
            if symbol not in known:
                caller.checked.all_symbols.append(symbol)
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
        temp_map: Dict[int, ins.Temp] = {}

        def remap(temp: ins.Temp) -> ins.Temp:
            new = temp_map.get(temp.index)
            if new is None:
                new = caller.new_temp()
                temp_map[temp.index] = new
            return new

        block_map: Dict[int, BasicBlock] = {}
        callee_blocks = callee.blocks()
        for old in callee_blocks:
            block_map[id(old)] = caller.new_block("inl_{}.".format(old.name))

        for old in callee_blocks:
            new_block = block_map[id(old)]
            for instr in old.instrs:
                new_block.instrs.append(_clone_instr(instr, remap))
            terminator = old.terminator
            assert terminator is not None
            if isinstance(terminator, ins.Return):
                if terminator.value is not None and ret_shadow is not None:
                    put = ins.StoreVar(ret_shadow, remap(terminator.value), terminator.loc)
                    put.counted = False  # result register move
                    new_block.instrs.append(put)
                new_block.terminate(ins.Jump(continuation, terminator.loc))
            elif isinstance(terminator, ins.Jump):
                new_block.terminate(
                    ins.Jump(block_map[id(terminator.target)], terminator.loc)
                )
            elif isinstance(terminator, ins.Branch):
                new_block.terminate(
                    ins.Branch(
                        remap(terminator.cond),
                        block_map[id(terminator.if_true)],
                        block_map[id(terminator.if_false)],
                        terminator.loc,
                    )
                )
        return block_map[id(callee.entry)]


def _clone_instr(instr: ins.Instr, remap) -> ins.Instr:
    """Structural clone with remapped temps."""
    cls = type(instr)
    if cls is ins.ConstInstr:
        return ins.ConstInstr(remap(instr.dest), instr.value, instr.loc)
    if cls is ins.Move:
        return ins.Move(remap(instr.dest), remap(instr.src), instr.loc)
    if cls is ins.LoadVar:
        return ins.LoadVar(remap(instr.dest), instr.symbol, instr.loc)
    if cls is ins.StoreVar:
        return ins.StoreVar(instr.symbol, remap(instr.src), instr.loc)
    if cls is ins.BinOp:
        return ins.BinOp(remap(instr.dest), instr.op, remap(instr.left), remap(instr.right), instr.loc)
    if cls is ins.UnOp:
        return ins.UnOp(remap(instr.dest), instr.op, remap(instr.operand), instr.loc)
    if cls is ins.LoadField:
        return ins.LoadField(remap(instr.dest), remap(instr.base), instr.field, instr.ap, instr.loc)
    if cls is ins.StoreField:
        return ins.StoreField(remap(instr.base), instr.field, remap(instr.src), instr.ap, instr.loc)
    if cls is ins.LoadElem:
        return ins.LoadElem(remap(instr.dest), remap(instr.base), remap(instr.index), instr.ap, instr.loc)
    if cls is ins.StoreElem:
        return ins.StoreElem(remap(instr.base), remap(instr.index), remap(instr.src), instr.ap, instr.loc)
    if cls is ins.LoadDopeData:
        return ins.LoadDopeData(remap(instr.dest), remap(instr.base), instr.ap, instr.loc)
    if cls is ins.LoadDopeCount:
        return ins.LoadDopeCount(remap(instr.dest), remap(instr.base), instr.ap, instr.loc)
    if cls is ins.LoadInd:
        return ins.LoadInd(remap(instr.dest), remap(instr.handle), instr.ap, instr.loc)
    if cls is ins.StoreInd:
        return ins.StoreInd(remap(instr.handle), remap(instr.src), instr.ap, instr.loc)
    if cls is ins.AddrVar:
        return ins.AddrVar(remap(instr.dest), instr.symbol, instr.loc)
    if cls is ins.AddrField:
        return ins.AddrField(remap(instr.dest), remap(instr.base), instr.field, instr.ap, instr.loc)
    if cls is ins.AddrElem:
        return ins.AddrElem(remap(instr.dest), remap(instr.base), remap(instr.index), instr.ap, instr.loc)
    if cls is ins.NewObject:
        return ins.NewObject(remap(instr.dest), instr.object_type, instr.loc)
    if cls is ins.NewRecord:
        return ins.NewRecord(remap(instr.dest), instr.ref_type, instr.loc)
    if cls is ins.NewFixedArray:
        return ins.NewFixedArray(remap(instr.dest), instr.ref_type, instr.loc)
    if cls is ins.NewOpenArray:
        return ins.NewOpenArray(remap(instr.dest), instr.ref_type, remap(instr.size), instr.loc)
    if cls is ins.Call:
        clone = ins.Call(
            remap(instr.dest) if instr.dest is not None else None,
            instr.proc_name,
            [remap(a) for a in instr.args],
            instr.loc,
        )
        setattr(clone, "var_args", getattr(instr, "var_args", {}))
        return clone
    if cls is ins.CallMethod:
        clone = ins.CallMethod(
            remap(instr.dest) if instr.dest is not None else None,
            remap(instr.receiver),
            instr.method_name,
            [remap(a) for a in instr.args],
            instr.static_receiver_type,
            instr.loc,
        )
        setattr(clone, "var_args", getattr(instr, "var_args", {}))
        return clone
    if cls is ins.Builtin:
        return ins.Builtin(
            remap(instr.dest) if instr.dest is not None else None,
            instr.name,
            [remap(a) for a in instr.args],
            instr.loc,
        )
    if cls is ins.TypeTest:
        return ins.TypeTest(remap(instr.dest), remap(instr.src), instr.target_type, instr.loc)
    if cls is ins.NarrowChk:
        return ins.NarrowChk(remap(instr.dest), remap(instr.src), instr.target_type, instr.loc)
    raise TypeError("cannot clone {!r}".format(instr))
