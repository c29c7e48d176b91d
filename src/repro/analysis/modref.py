"""Interprocedural mod-ref analysis.

Section 3.4.1: "To enable RLE across calls, RLE is preceded by a mod-ref
analysis which summarizes the access paths that are referenced and
modified by each call."

A :class:`ModRefSummary` holds, transitively over the call graph:

* ``heap_writes`` / ``heap_reads`` — canonical access paths of heap
  stores/loads the procedure may perform (incl. stores through handles,
  which appear as ``Deref(param)`` paths — the alias analyses relate
  them to qualified/subscripted paths via AddressTaken, Table 2 cases
  3–4);
* ``global_writes`` / ``global_reads`` — module-level variables touched;
* ``param_writes`` — indices of VAR parameters written through.

At a call site RLE resolves ``param_writes`` against the lent locations
(recorded on the call instruction by the lowering) to decide which caller
variables and heap paths may change.
"""

from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.callgraph import CallGraph
from repro.ir import instructions as ins
from repro.ir.access_path import AccessPath, VarRoot, strip_index
from repro.ir.cfg import ProcIR, ProgramIR
from repro.lang.symtab import Symbol


class ModRefSummary:
    """What one procedure may read and write, transitively."""

    def __init__(self, name: str):
        self.name = name
        # Ordered sets (dict keys): paths in the order they were found.
        self.heap_writes: Dict[AccessPath, None] = {}
        self.heap_reads: Dict[AccessPath, None] = {}
        self.global_writes: Set[Symbol] = set()
        self.global_reads: Set[Symbol] = set()
        self.param_writes: Set[int] = set()

    def size_key(self) -> Tuple[int, int, int, int, int]:
        return (
            len(self.heap_writes),
            len(self.heap_reads),
            len(self.global_writes),
            len(self.global_reads),
            len(self.param_writes),
        )

    def __repr__(self) -> str:
        return "<ModRefSummary {} writes={} globals={} params={}>".format(
            self.name, len(self.heap_writes), len(self.global_writes),
            sorted(self.param_writes),
        )


class ModRefAnalysis:
    """Computes summaries for every procedure by fixpoint iteration."""

    def __init__(self, program: ProgramIR, callgraph: Optional[CallGraph] = None):
        self.program = program
        self.callgraph = callgraph or CallGraph(program)
        self.summaries: Dict[str, ModRefSummary] = {}
        self._compute()

    def summary(self, proc_name: str) -> ModRefSummary:
        return self.summaries[proc_name]

    # ------------------------------------------------------------------

    def _compute(self) -> None:
        for proc in self.program.user_procs():
            self.summaries[proc.name] = self._direct_summary(proc)
        changed = True
        while changed:
            changed = False
            for proc in self.program.user_procs():
                if self._absorb_callees(proc):
                    changed = True

    def _direct_summary(self, proc: ProcIR) -> ModRefSummary:
        summary = ModRefSummary(proc.name)
        param_index = {
            symbol: i for i, symbol in enumerate(proc.checked.params)
        }
        for instr in proc.all_instrs():
            if instr.is_heap_store:
                assert instr.ap is not None
                summary.heap_writes[strip_index(instr.ap)] = None
                self._note_indirect(instr, proc, summary, param_index, write=True)
            elif instr.is_heap_load:
                assert instr.ap is not None
                summary.heap_reads[strip_index(instr.ap)] = None
                self._note_indirect(instr, proc, summary, param_index, write=False)
            elif isinstance(instr, ins.StoreVar) and instr.symbol.is_global:
                summary.global_writes.add(instr.symbol)
            elif isinstance(instr, ins.LoadVar) and instr.symbol.is_global:
                summary.global_reads.add(instr.symbol)
        return summary

    def _note_indirect(
        self,
        instr: ins.Instr,
        proc: ProcIR,
        summary: ModRefSummary,
        param_index: Dict[Symbol, int],
        write: bool,
    ) -> None:
        """Resolve Load/StoreInd through handles to params/globals."""
        if not isinstance(instr, (ins.LoadInd, ins.StoreInd)):
            return
        ap = instr.ap
        root = ap.root() if ap is not None else None
        if not isinstance(root, VarRoot):
            return
        symbol = root.symbol
        if symbol.by_reference and symbol in param_index:
            if write:
                summary.param_writes.add(param_index[symbol])
            return
        if symbol.kind == "with":
            target = proc.handle_targets.get(symbol)
            self._absorb_lent_location(summary, proc, target, param_index, write)

    def _absorb_lent_location(
        self,
        summary: ModRefSummary,
        proc: ProcIR,
        target: Optional[tuple],
        param_index: Dict[Symbol, int],
        write: bool,
    ) -> None:
        if target is None:
            return
        kind, payload = target
        if kind == "var":
            if payload.is_global:
                (summary.global_writes if write else summary.global_reads).add(payload)
            # Writes to own locals are invisible to callers.
        elif kind == "handle":
            if payload.by_reference and payload in param_index and write:
                summary.param_writes.add(param_index[payload])
            elif payload.kind == "with":
                self._absorb_lent_location(
                    summary, proc, proc.handle_targets.get(payload), param_index, write
                )
        elif kind == "heap":
            (summary.heap_writes if write else summary.heap_reads)[payload] = None

    # ------------------------------------------------------------------

    def _absorb_callees(self, proc: ProcIR) -> bool:
        summary = self.summaries[proc.name]
        before = summary.size_key()
        param_index = {s: i for i, s in enumerate(proc.checked.params)}
        for instr in proc.all_instrs():
            if not instr.is_call:
                continue
            var_args = instr.var_args
            offset = 1 if isinstance(instr, ins.CallMethod) else 0
            for callee_name in self.callgraph.call_targets(instr):
                callee = self.summaries.get(callee_name)
                if callee is None:
                    continue
                summary.heap_writes |= callee.heap_writes
                summary.heap_reads |= callee.heap_reads
                summary.global_writes |= callee.global_writes
                summary.global_reads |= callee.global_reads
                for written_param in callee.param_writes:
                    # Method receivers shift explicit args by one.
                    arg_position = written_param - offset
                    target = var_args.get(arg_position)
                    self._absorb_lent_location(
                        summary, proc, target, param_index, write=True
                    )
        return summary.size_key() != before

    # ------------------------------------------------------------------
    # Call-site kill queries (used by RLE)

    def call_may_write_global(self, instr: ins.Instr, symbol: Symbol) -> bool:
        for callee in self.callgraph.call_targets(instr):
            if symbol in self.summaries[callee].global_writes:
                return True
        return False

    def call_heap_writes(self, instr: ins.Instr) -> List[AccessPath]:
        """Union of heap write paths over all possible callees, plus the
        heap locations lent as VAR arguments at this site, in the order
        the summaries found them (RLE stops at the first may-alias, so
        the order fixes which alias queries it asks)."""
        writes: Dict[AccessPath, None] = {}
        for callee in self.callgraph.call_targets(instr):
            writes.update(self.summaries[callee].heap_writes)
        for target in instr.var_args.values():
            if target[0] == "heap":
                writes[target[1]] = None
        return list(writes)

    def call_written_var_roots(self, instr: ins.Instr, proc: ProcIR) -> Set[Symbol]:
        """Caller variables whose value may change across this call:
        globals the callees write, plus variables lent by VAR."""
        roots: Set[Symbol] = set()
        for callee in self.callgraph.call_targets(instr):
            roots |= self.summaries[callee].global_writes
        for target in instr.var_args.values():
            roots |= _lent_var_roots(target, proc)
        return roots


def _lent_var_roots(target: tuple, proc: ProcIR) -> Set[Symbol]:
    kind, payload = target
    if kind == "var":
        return {payload}
    if kind == "handle":
        roots = {payload}
        deeper = proc.handle_targets.get(payload)
        if deeper is not None:
            roots |= _lent_var_roots(deeper, proc)
        return roots
    return set()
