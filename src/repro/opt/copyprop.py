"""Copy propagation — the paper's missing pass, implemented.

Figure 10's "Breakup" category exists because "our optimizer does not do
copy propagation": after ``o := t``, loads of ``o.n`` and ``t.n`` are
different lexical access paths to the same location, so RLE cannot unify
them.  Inlining makes this worse (every inlined call binds parameters by
copy).

This pass propagates *reference copies between register-class variables*:
while ``dst = src`` holds, the access paths of memory instructions rooted
at ``dst`` (and subscript indices using ``dst``) are re-rooted at the
canonical source.  No executed code changes — the values are identical —
but RLE's lexical world becomes connected, so the Breakup loads unify.

Safety:

* facts are flow-sensitive (per-instruction within blocks, intersection
  meet across blocks);
* only variables whose address is never taken in the procedure
  participate (no VAR lending, no WITH binding), so only explicit
  ``StoreVar`` can invalidate a fact;
* globals never participate (any call could rewrite them).
"""

from typing import Dict, Optional, Set

from repro.ir import instructions as ins
from repro.ir.access_path import (
    AccessPath,
    Deref,
    FreshRoot,
    Qualify,
    Subscript,
    VarIndex,
    VarRoot,
)
from repro.ir.cfg import BasicBlock, ProcIR, ProgramIR
from repro.lang.symtab import Symbol


class CopyPropagationStats:
    def __init__(self) -> None:
        self.facts_created = 0
        self.paths_rewritten = 0

    def __repr__(self) -> str:
        return "<CopyPropagationStats facts={} rewrites={}>".format(
            self.facts_created, self.paths_rewritten
        )


Facts = Dict[Symbol, Symbol]  # dst -> canonical source


class CopyPropagation:
    """Re-roots access paths through register copies, per procedure."""

    def __init__(self, program: ProgramIR):
        self.program = program
        self.stats = CopyPropagationStats()

    def run(self) -> CopyPropagationStats:
        for proc in self.program.user_procs():
            _ProcCopyProp(self, proc).run()
        return self.stats


class _ProcCopyProp:
    def __init__(self, owner: CopyPropagation, proc: ProcIR):
        self.owner = owner
        self.proc = proc
        self.stats = owner.stats
        self.eligible = self._eligible_symbols()
        self.volatile = self._volatile_symbols()

    # ------------------------------------------------------------------

    def _eligible_symbols(self) -> Set[Symbol]:
        """Variables that may participate in copy facts.

        Handles (VAR params, location-binding WITHs) never participate.
        Everything else may, but facts involving a *volatile* symbol —
        a global, or a local whose address is taken in this procedure —
        are killed at every call and indirect store (anything that could
        write the symbol behind our back); see :meth:`_transfer`.
        """
        eligible: Set[Symbol] = set()
        candidates = self.proc.variables + self.owner.program.checked.globals
        for symbol in candidates:
            if symbol.by_reference or (symbol.kind == "with" and symbol.binds_location):
                continue
            if symbol.kind in ("var", "param", "for", "with"):
                eligible.add(symbol)
        return eligible

    def _volatile_symbols(self) -> Set[Symbol]:
        """Symbols writable other than by a visible StoreVar."""
        volatile: Set[Symbol] = set(self.owner.program.checked.globals)
        for instr in self.proc.all_instrs():
            if isinstance(instr, ins.AddrVar):
                volatile.add(instr.symbol)
        for symbol, target in self.proc.handle_targets.items():
            volatile.add(symbol)
            if target[0] in ("var", "handle"):
                volatile.add(target[1])
        return volatile

    # ------------------------------------------------------------------

    def run(self) -> None:
        blocks = self.proc.blocks()
        preds = self.proc.predecessors()
        facts_in: Dict[BasicBlock, Optional[Facts]] = {b: None for b in blocks}
        facts_in[self.proc.entry] = {}

        changed = True
        while changed:
            changed = False
            outs: Dict[BasicBlock, Optional[Facts]] = {}
            for block in blocks:
                if block is not self.proc.entry and preds[block]:
                    merged: Optional[Facts] = None
                    for p in preds[block]:
                        p_out = self._block_out(facts_in.get(p), p)
                        if p_out is None:
                            continue
                        if merged is None:
                            merged = dict(p_out)
                        else:
                            merged = {
                                k: v
                                for k, v in merged.items()
                                if p_out.get(k) is v
                            }
                    if merged is not None and merged != facts_in[block]:
                        facts_in[block] = merged
                        changed = True
                outs[block] = self._block_out(facts_in[block], block)

        for block in blocks:
            self._rewrite_block(block, facts_in[block])

    def _block_out(self, facts: Optional[Facts], block: BasicBlock) -> Optional[Facts]:
        if facts is None:
            return None
        facts = dict(facts)
        temp_defs: Dict[int, ins.Instr] = {}
        for instr in block.all_instrs():
            self._transfer(instr, facts, temp_defs)
        return facts

    def _transfer(
        self, instr: ins.Instr, facts: Facts, temp_defs: Dict[int, ins.Instr]
    ) -> None:
        if instr.is_call or isinstance(instr, ins.StoreInd):
            # Anything volatile may have been rewritten behind our back.
            for key in [
                k for k, v in facts.items()
                if k in self.volatile or v in self.volatile
            ]:
                facts.pop(key)
            if instr.dest is not None:
                temp_defs[instr.dest.index] = instr
            return
        if isinstance(instr, ins.StoreVar):
            dst = instr.symbol
            # Any write to dst kills facts through dst (either side).
            facts.pop(dst, None)
            for key in [k for k, v in facts.items() if v is dst]:
                facts.pop(key)
            definition = temp_defs.get(instr.src.index)
            if (
                dst in self.eligible
                and isinstance(definition, ins.LoadVar)
                and definition.symbol in self.eligible
            ):
                src = facts.get(definition.symbol, definition.symbol)
                if src is not dst:
                    facts[dst] = src
                    self.stats.facts_created += 1
            return
        if instr.dest is not None:
            temp_defs[instr.dest.index] = instr

    # ------------------------------------------------------------------

    def _rewrite_block(self, block: BasicBlock, facts: Optional[Facts]) -> None:
        if facts is None:
            return
        facts = dict(facts)
        temp_defs: Dict[int, ins.Instr] = {}
        for instr in block.all_instrs():
            ap = instr.ap
            if ap is not None:
                new_ap = self._substitute(ap, facts)
                if new_ap is not ap:
                    instr.ap = new_ap
                    self.stats.paths_rewritten += 1
            self._transfer(instr, facts, temp_defs)

    def _substitute(self, ap: AccessPath, facts: Facts) -> AccessPath:
        if isinstance(ap, VarRoot):
            replacement = facts.get(ap.symbol)
            if replacement is not None:
                return VarRoot(replacement)
            return ap
        if isinstance(ap, FreshRoot):
            return ap
        if isinstance(ap, Qualify):
            base = self._substitute(ap.base, facts)
            if base is ap.base:
                return ap
            return Qualify(base, ap.field, ap.type, ap.owner)
        if isinstance(ap, Deref):
            base = self._substitute(ap.base, facts)
            if base is ap.base:
                return ap
            return Deref(base, ap.type)
        if isinstance(ap, Subscript):
            base = self._substitute(ap.base, facts)
            index = ap.index
            if isinstance(index, VarIndex):
                replacement = facts.get(index.symbol)
                if replacement is not None:
                    index = VarIndex(replacement)
            if base is ap.base and index is ap.index:
                return ap
            return Subscript(base, index, ap.type)
        return ap
