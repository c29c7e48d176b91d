"""Redundant Load Elimination (RLE) — Section 3.4.1 of the paper.

    "RLE combines variants of loop invariant code motion (similar to
     register promotion) and common subexpression elimination of memory
     references. ... A memory expression at statement s is redundant if
     it is available on every path to s."

Two phases per procedure:

1. **Loop-invariant load motion** (Figure 6): a heap load whose access
   path is invariant in a natural loop (no may-aliased store, no killing
   call, no root-variable redefinition inside the loop) and which is
   executed on every iteration (its block dominates every back-edge
   source) is re-materialised in a preheader.

2. **Available-load CSE** (Figure 7): forward all-paths dataflow over the
   procedure's access paths.  Loads and stores *generate* availability;
   kills come from (a) assignments to any root/index variable of a path,
   (b) heap stores that may alias the path or a reference it loads
   through — decided by the configured TBAA analysis — so ``v0.r2 :=
   v0`` kills ``v0.r2.f0``, (c) calls whose mod-ref summary may write
   the path or such a prefix.  A load whose path is available is
   replaced by a register move from a shadow cache variable written at
   every generating site.  The move keeps the eliminated load's NIL and
   bounds check (``LoadVar.checks``) unless that load was speculative:
   the cached value may come from a hoisted load that read junk where
   the original would have trapped.

The pass records a *status* per heap-load instruction (eliminated /
partial / killed_store / killed_call / fresh / dope) which the limit
study (Figure 10) joins with the dynamic trace to classify residual
redundancy.  Dope-vector loads are invisible to RLE — the paper's
optimizer worked on the AST where those loads do not exist, which is
exactly why "Encapsulation" dominates its residue.
"""

from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.alias_base import AliasAnalysis
from repro.analysis.modref import ModRefAnalysis
from repro.ir import instructions as ins
from repro.ir.access_path import (
    AccessPath,
    ConstIndex,
    Deref,
    FreshRoot,
    Qualify,
    Subscript,
    UnknownIndex,
    VarIndex,
    VarRoot,
)
from repro.ir.cfg import BasicBlock, ProcIR, ProgramIR
from repro.ir.dominators import DominatorTree
from repro.ir.loops import NaturalLoop, find_natural_loops
from repro.lang import types as ty
from repro.lang.symtab import Symbol
from repro.runtime.limit import (
    STATUS_DOPE,
    STATUS_ELIMINATED,
    STATUS_FRESH,
    STATUS_KILLED_CALL,
    STATUS_KILLED_STORE,
    STATUS_PARTIAL,
)


class RLEStatistics:
    """Aggregate results of one RLE run over a program."""

    def __init__(self) -> None:
        self.eliminated_loads = 0  # Table 6's "redundant loads removed"
        self.hoisted_paths = 0
        self.pre_inserted = 0  # speculative loads added by the PRE option
        self.load_status: Dict[ins.Instr, str] = {}  # heap load -> status
        self.per_proc_eliminated: Dict[str, int] = {}

    def __repr__(self) -> str:
        return "<RLEStatistics eliminated={} hoisted={}>".format(
            self.eliminated_loads, self.hoisted_paths
        )


class RedundantLoadElimination:
    """Runs RLE over every procedure of a program, in place."""

    def __init__(
        self,
        program: ProgramIR,
        analysis: AliasAnalysis,
        modref: Optional[ModRefAnalysis] = None,
        hoist: bool = True,
        see_dope_loads: bool = False,
        local_only: bool = False,
        calls_kill_all: bool = False,
        record_status: bool = True,
        pre: bool = False,
    ):
        self.program = program
        self.analysis = analysis
        self.hoist = hoist
        # Extension/ablation: let RLE see and eliminate dope-vector loads
        # (the paper's compiler could not — its IR hid them).
        self.see_dope_loads = see_dope_loads
        # GCC-backend mode (the paper's baseline): availability is
        # block-local only, and every call conservatively kills all.
        self.local_only = local_only
        self.calls_kill_all = calls_kill_all
        self.record_status = record_status
        # Extension (the paper's stated future work): partial redundancy
        # elimination of loads — make partially-available paths fully
        # available by inserting speculative loads on the lacking edges.
        self.pre = pre
        if calls_kill_all:
            self.modref = modref  # never consulted
        else:
            self.modref = modref or ModRefAnalysis(program)
        self.stats = RLEStatistics()

    def run(self) -> RLEStatistics:
        for proc in self.program.user_procs():
            _ProcRLE(self, proc).run()
        return self.stats

    # -- helpers shared by per-proc passes --------------------------------

    def visible_load(self, instr: ins.Instr) -> bool:
        if not instr.is_heap_load:
            return False
        if instr.is_dope and not self.see_dope_loads:
            return False
        return True


class _ProcRLE:
    """RLE for a single procedure."""

    def __init__(self, owner: RedundantLoadElimination, proc: ProcIR):
        self.owner = owner
        self.proc = proc
        self.analysis = owner.analysis
        self.modref = owner.modref
        self.stats = owner.stats
        # AP universe: index and shadow symbol per lexical path.
        self.ap_index: Dict[AccessPath, int] = {}
        self.ap_list: List[AccessPath] = []
        self.ap_prefixes: List[List[AccessPath]] = []  # per ap_list entry
        self.shadows: Dict[AccessPath, Symbol] = {}
        self.kill_reason: Dict[AccessPath, str] = {}
        # Kill masks per root or index variable, per store path and per
        # call, once the universe is fixed (the availability fixpoint
        # visits each site many times).
        self._root_kills: Dict[Symbol, int] = {}
        self._store_kills: Dict[AccessPath, int] = {}
        self._call_kills: Dict[ins.Instr, int] = {}

    # ------------------------------------------------------------------

    def run(self) -> None:
        if self.owner.hoist and self.owner.modref is not None:
            self._hoist_loops()
        self._build_universe()
        if self.ap_list:
            self._cse()
        else:
            self._tag_only()

    def _tag_only(self) -> None:
        if not self.owner.record_status:
            return
        for instr in self.proc.all_instrs():
            if instr.is_heap_load:
                self.stats.load_status[instr] = (
                    STATUS_DOPE if instr.is_dope else STATUS_FRESH
                )

    # ------------------------------------------------------------------
    # Universe and transfer functions

    def _build_universe(self) -> None:
        for block in self.proc.blocks():
            for instr in block.all_instrs():
                if self.owner.visible_load(instr) or instr.is_heap_store:
                    ap = instr.ap
                    assert ap is not None
                    if ap not in self.ap_index:
                        self.ap_index[ap] = len(self.ap_list)
                        self.ap_list.append(ap)
        for i, ap in enumerate(self.ap_list):
            for symbol in ap.root_symbols():
                self._root_kills[symbol] = self._root_kills.get(symbol, 0) | 1 << i
        self.ap_prefixes = [_memory_prefixes(ap) for ap in self.ap_list]

    def _shadow(self, ap: AccessPath) -> Symbol:
        shadow = self.shadows.get(ap)
        if shadow is None:
            shadow = self.proc.new_shadow("rle", ap.type)
            self.shadows[ap] = shadow
        return shadow

    def _kills(self, prefixes: List[AccessPath], written: AccessPath) -> bool:
        """True if a write to *written* may change what a path denotes or
        holds: it may alias one of the path's *prefixes*
        (:func:`_memory_prefixes`)."""
        may_alias = self.analysis.may_alias
        return any(may_alias(prefix, written) for prefix in prefixes)

    def _kill_mask_for_store(self, store_ap: AccessPath) -> int:
        """Availability killed by a heap store with path *store_ap*."""
        mask = self._store_kills.get(store_ap)
        if mask is None:
            mask = 0
            for i, ap in enumerate(self.ap_list):
                if ap == store_ap:
                    continue  # the exact path is regenerated, not killed
                if self._kills(self.ap_prefixes[i], store_ap):
                    mask |= 1 << i
            self._store_kills[store_ap] = mask
        return mask

    def _kill_mask_for_roots(self, roots: Set[Symbol]) -> int:
        """Availability killed by redefinition of any symbol in *roots*."""
        mask = 0
        for symbol in roots:
            mask |= self._root_kills.get(symbol, 0)
        return mask

    def _kill_mask_for_call(self, instr: ins.Instr) -> int:
        if self.owner.calls_kill_all:
            return (1 << len(self.ap_list)) - 1
        mask = self._call_kills.get(instr)
        if mask is None:
            assert self.modref is not None
            written_roots = self.modref.call_written_var_roots(instr, self.proc)
            mask = self._kill_mask_for_roots(written_roots)
            heap_writes = self.modref.call_heap_writes(instr)
            for i, prefixes in enumerate(self.ap_prefixes):
                if not mask & (1 << i) and any(
                    self._kills(prefixes, written) for written in heap_writes
                ):
                    mask |= 1 << i
            self._call_kills[instr] = mask
        return mask

    def _storeind_extra_roots(self, instr: ins.StoreInd) -> Set[Symbol]:
        """Variables a StoreInd may redefine (handle targets)."""
        ap = instr.ap
        root = ap.root() if ap is not None else None
        roots: Set[Symbol] = set()
        if isinstance(root, VarRoot):
            symbol = root.symbol
            if symbol.kind == "with":
                target = self.proc.handle_targets.get(symbol)
                while target is not None:
                    kind, payload = target
                    if kind == "var":
                        roots.add(payload)
                        target = None
                    elif kind == "handle":
                        roots.add(payload)
                        target = self.proc.handle_targets.get(payload)
                    else:
                        target = None
            elif symbol.by_reference:
                # An incoming handle may point at a global of the exact
                # same type (VAR formals require identical types).
                for g in self.program_globals():
                    if g.type is symbol.type:
                        roots.add(g)
        return roots

    def program_globals(self) -> List[Symbol]:
        return self.owner.program.checked.globals

    def _transfer(self, instr: ins.Instr, avail: int, collect: Optional[Dict] = None) -> int:
        """Forward transfer of availability across one instruction."""
        index = self.ap_index
        if self.owner.visible_load(instr):
            ap = instr.ap
            assert ap is not None
            return avail | (1 << index[ap])
        if instr.is_heap_store:
            ap = instr.ap
            assert ap is not None
            kill = self._kill_mask_for_store(ap)
            if isinstance(instr, ins.StoreInd):
                kill |= self._kill_mask_for_roots(self._storeind_extra_roots(instr))
            if collect is not None:
                collect["store"] = collect.get("store", 0) | kill
            gen = 1 << index[ap] if ap in index else 0
            return (avail & ~kill) | gen
        if isinstance(instr, ins.StoreVar):
            kill = self._kill_mask_for_roots({instr.symbol})
            if collect is not None:
                collect["storevar"] = collect.get("storevar", 0) | kill
            return avail & ~kill
        if instr.is_call:
            kill = self._kill_mask_for_call(instr)
            if collect is not None:
                collect["call"] = collect.get("call", 0) | kill
            return avail & ~kill
        return avail

    # ------------------------------------------------------------------
    # Phase 2: available-load CSE

    def _cse(self) -> None:
        blocks = self.proc.blocks()
        preds = self.proc.predecessors()
        full = (1 << len(self.ap_list)) - 1

        if self.owner.local_only:
            # GCC-backend mode: nothing is available at block entry.
            for block in blocks:
                self._rewrite_block(block, 0, 0)
            return

        must_in, may_in, must_out = self._solve(blocks, preds, full)

        if self.owner.pre:
            inserted = self._pre_insert(blocks, preds, must_in, may_in, must_out)
            if inserted:
                blocks = self.proc.blocks()
                preds = self.proc.predecessors()
                must_in, may_in, must_out = self._solve(blocks, preds, full)

        for block in blocks:
            self._rewrite_block(block, must_in[block], may_in[block])

    def _solve(self, blocks, preds, full):
        """Forward availability fixpoint: (must_in, may_in, must_out)."""
        must_in: Dict[BasicBlock, int] = {b: full for b in blocks}
        may_in: Dict[BasicBlock, int] = {b: 0 for b in blocks}
        must_in[self.proc.entry] = 0

        must_out: Dict[BasicBlock, int] = {}
        may_out: Dict[BasicBlock, int] = {}
        for block in blocks:
            must_out[block] = self._block_out(block, must_in[block])
            may_out[block] = self._block_out(block, may_in[block])

        changed = True
        while changed:
            changed = False
            for block in blocks:
                if block is not self.proc.entry and preds[block]:
                    new_must = full
                    new_may = 0
                    for p in preds[block]:
                        new_must &= must_out[p]
                        new_may |= may_out[p]
                    if new_must != must_in[block] or new_may != may_in[block]:
                        must_in[block] = new_must
                        may_in[block] = new_may
                        must_out[block] = self._block_out(block, new_must)
                        may_out[block] = self._block_out(block, new_may)
                        changed = True
        return must_in, may_in, must_out

    # ------------------------------------------------------------------
    # Simplified speculative PRE (extension — the paper's future work)

    def _pre_insert(self, blocks, preds, must_in, may_in, must_out) -> bool:
        """Make partially-available loaded paths fully available.

        For every block that visibly loads a path that is available on
        some but not all incoming edges, insert a *speculative* load of
        the path on each lacking edge (splitting critical edges).  The
        subsequent availability pass then eliminates the original load —
        the 'Conditional' category of Figure 10.
        """
        inserted = False
        domtree = DominatorTree(self.proc)
        # Collect insertions first: (pred, block, [aps]) — edge splitting
        # during iteration would invalidate preds.
        plan = []
        for block in blocks:
            if block is self.proc.entry or not preds[block]:
                continue
            partial = may_in[block] & ~must_in[block]
            if not partial:
                continue
            wanted = self._anticipated_partial_loads(block, partial)
            if not wanted:
                continue
            # Never insert on a back edge: the inserted load would execute
            # on every iteration, trading one partial redundancy for a
            # new full one (the classic eager-PRE pessimization).  And if
            # a path's availability gap includes a back edge, inserting on
            # the other edges cannot complete it — skip the path entirely.
            back_edge_preds = [
                p for p in preds[block] if domtree.dominates(block, p)
            ]
            insertable_preds = [
                p for p in preds[block] if not domtree.dominates(block, p)
            ]
            completable = [
                ap
                for ap in wanted
                if all(
                    must_out[p] & (1 << self.ap_index[ap])
                    for p in back_edge_preds
                )
            ]
            for pred in insertable_preds:
                lacking = [
                    ap
                    for ap in completable
                    if not must_out[pred] & (1 << self.ap_index[ap])
                ]
                if lacking:
                    plan.append((pred, block, lacking))

        for pred, block, aps in plan:
            target = self._insertion_block(pred, block)
            for ap in aps:
                self._materialize_load(target, ap)
                self.stats.pre_inserted += 1
            inserted = True
        return inserted

    def _anticipated_partial_loads(self, block: BasicBlock, partial: int):
        """Partially-available paths loaded at *block* entry-anticipated.

        A path qualifies only if the block loads it before anything can
        kill it: then moving the load onto the lacking incoming edges
        never adds a load to any execution (every path through the block
        performed it anyway) and removes it from the available paths —
        true downward-safe PRE, no speculation cost.
        """
        wanted = []
        touched = 0
        for instr in block.instrs:
            if self.owner.visible_load(instr):
                ap = instr.ap
                assert ap is not None
                bit = 1 << self.ap_index[ap]
                if (
                    partial & bit
                    and not touched & bit
                    and ap not in wanted
                    and not _contains_unknown_index(ap)
                    and not _contains_fresh_root(ap)
                    # Re-materialising an open-array subscript emits a
                    # fresh dope-vector load per edge execution; unless
                    # RLE can eliminate dope loads, that trade loses.
                    and (self.owner.see_dope_loads or not _requires_dope(ap))
                ):
                    wanted.append(ap)
                touched |= bit
                continue
            # Anything else may kill availability: approximate by the
            # transfer function's effect (bits leaving must-availability).
            before = (1 << len(self.ap_list)) - 1
            after = self._transfer(instr, before)
            touched |= before & ~after
        return wanted

    def _insertion_block(self, pred: BasicBlock, block: BasicBlock) -> BasicBlock:
        """A block on the pred->block edge safe for insertions."""
        if len(pred.successors()) <= 1:
            return pred
        # Split the critical edge.
        edge = self.proc.new_block("pre_edge")
        edge.terminate(ins.Jump(block))
        _redirect(pred, block, edge)
        return edge

    def _block_out(self, block: BasicBlock, avail_in: int) -> int:
        avail = avail_in
        for instr in block.all_instrs():
            avail = self._transfer(instr, avail)
        return avail

    def _rewrite_block(self, block: BasicBlock, must: int, may: int) -> None:
        index = self.ap_index
        new_instrs: List[ins.Instr] = []
        eliminated_here = 0
        for instr in block.instrs:
            if self.owner.visible_load(instr):
                ap = instr.ap
                assert ap is not None
                bit = 1 << index[ap]
                shadow = self._shadow(ap)
                if must & bit:
                    # Redundant: replace with a register move (free — the
                    # value is already in the shadow register).  The move
                    # keeps a faulting load's NIL and bounds check: the
                    # cached value may come from a speculative load that
                    # read junk where this one would have trapped.
                    assert instr.dest is not None
                    replacement = ins.LoadVar(instr.dest, shadow, instr.loc)
                    replacement.counted = False
                    if not instr.speculative:
                        replacement.checks = instr
                    new_instrs.append(replacement)
                    if self.owner.record_status:
                        self.stats.load_status[instr] = STATUS_ELIMINATED
                    eliminated_here += 1
                else:
                    new_instrs.append(instr)
                    assert instr.dest is not None
                    cache = ins.StoreVar(shadow, instr.dest, instr.loc)
                    cache.counted = False
                    new_instrs.append(cache)
                    if self.owner.record_status:
                        if may & bit:
                            self.stats.load_status[instr] = STATUS_PARTIAL
                        else:
                            self.stats.load_status[instr] = self.kill_reason.get(
                                ap, STATUS_FRESH
                            )
                must = self._transfer(instr, must)
                may = self._transfer(instr, may)
                continue

            if instr.is_heap_load and instr.is_dope:
                if self.owner.record_status:
                    self.stats.load_status[instr] = STATUS_DOPE
                new_instrs.append(instr)
                continue

            new_instrs.append(instr)
            if instr.is_heap_store:
                ap = instr.ap
                assert ap is not None
                if ap in index:
                    # Store-to-load forwarding: refresh the cache.
                    src = instr.src  # type: ignore[attr-defined]
                    cache = ins.StoreVar(self._shadow(ap), src, instr.loc)
                    cache.counted = False
                    new_instrs.append(cache)
            collect: Dict[str, int] = {}
            must = self._transfer(instr, must, collect)
            may = self._transfer(instr, may)
            self._note_kills(collect)

        block.instrs = new_instrs
        if block.terminator is not None:
            collect = {}
            must = self._transfer(block.terminator, must, collect)
            self._note_kills(collect)
        self.stats.eliminated_loads += eliminated_here
        self.stats.per_proc_eliminated[self.proc.name] = (
            self.stats.per_proc_eliminated.get(self.proc.name, 0) + eliminated_here
        )

    def _note_kills(self, collect: Dict[str, int]) -> None:
        """Remember, per AP, the most recent reason it lost availability."""
        for reason_key, status in (
            ("store", STATUS_KILLED_STORE),
            ("storevar", STATUS_FRESH),
            ("call", STATUS_KILLED_CALL),
        ):
            mask = collect.get(reason_key, 0)
            if not mask:
                continue
            for i, ap in enumerate(self.ap_list):
                if mask & (1 << i):
                    self.kill_reason[ap] = status

    # ------------------------------------------------------------------
    # Phase 1: loop-invariant load motion

    def _hoist_loops(self) -> None:
        headers = [loop.header for loop in self._current_loops()]
        for header in headers:
            loop = self._loop_with_header(header)
            if loop is not None:
                self._hoist_one_loop(loop)

    def _current_loops(self) -> List[NaturalLoop]:
        domtree = DominatorTree(self.proc)
        return find_natural_loops(self.proc, domtree)

    def _loop_with_header(self, header: BasicBlock) -> Optional[NaturalLoop]:
        for loop in self._current_loops():
            if loop.header is header:
                return loop
        return None

    def _hoist_one_loop(self, loop: NaturalLoop) -> None:
        # The body in reverse postorder: it is a set hashed by identity,
        # and the order of its stores and calls fixes which alias queries
        # are asked, that of its loads where they land in the preheader.
        body = [block for block in self.proc.blocks() if block in loop.body]
        killed_roots, store_aps, call_instrs = self._loop_kills(body)

        # Blocks loading each path inside the loop.
        loading_blocks: Dict[AccessPath, Set[BasicBlock]] = {}
        for block in body:
            for instr in block.instrs:
                if self.owner.visible_load(instr):
                    ap = instr.ap
                    assert ap is not None
                    loading_blocks.setdefault(ap, set()).add(block)

        candidates: List[AccessPath] = []
        for ap, blocks_loading in loading_blocks.items():
            # The paper: hoist "if the reference is loop invariant and is
            # executed on every iteration of the loop".  Executed on every
            # iteration = every header-to-latch path passes a loading
            # block (Figure 6 loads a.b^ on *both* branches of an IF).
            if not self._on_every_iteration(loop, blocks_loading):
                continue
            if self._hoistable(ap, killed_roots, store_aps, call_instrs):
                candidates.append(ap)

        if not candidates:
            return
        preheader = self._ensure_preheader(loop)
        for ap in candidates:
            self._materialize_load(preheader, ap)
            self.stats.hoisted_paths += 1

    def _on_every_iteration(
        self, loop: NaturalLoop, loading: Set[BasicBlock]
    ) -> bool:
        """True iff every header→latch path inside the loop passes through
        a block in *loading* (forward all-paths dataflow over the body)."""
        preds = self.proc.predecessors()
        passed: Dict[BasicBlock, bool] = {b: True for b in loop.body}
        passed[loop.header] = loop.header in loading
        changed = True
        while changed:
            changed = False
            for block in loop.body:
                if block is loop.header:
                    continue
                inside_preds = [p for p in preds[block] if p in loop.body]
                if not inside_preds:
                    new_value = block in loading
                else:
                    new_value = all(passed[p] for p in inside_preds) or (
                        block in loading
                    )
                if new_value != passed[block]:
                    passed[block] = new_value
                    changed = True
        return all(passed[latch] for latch in loop.latches)

    def _loop_kills(
        self, body: List[BasicBlock]
    ) -> Tuple[Set[Symbol], List[AccessPath], List[ins.Instr]]:
        killed_roots: Set[Symbol] = set()
        store_aps: List[AccessPath] = []
        call_instrs: List[ins.Instr] = []
        for block in body:
            for instr in block.all_instrs():
                if isinstance(instr, ins.StoreVar):
                    killed_roots.add(instr.symbol)
                elif instr.is_heap_store:
                    assert instr.ap is not None
                    store_aps.append(instr.ap)
                    if isinstance(instr, ins.StoreInd):
                        killed_roots |= self._storeind_extra_roots(instr)
                elif instr.is_call:
                    call_instrs.append(instr)
                    killed_roots |= self.modref.call_written_var_roots(
                        instr, self.proc
                    )
        return killed_roots, store_aps, call_instrs

    def _hoistable(
        self,
        ap: AccessPath,
        killed_roots: Set[Symbol],
        store_aps: List[AccessPath],
        call_instrs: List[ins.Instr],
    ) -> bool:
        if _contains_unknown_index(ap) or _contains_fresh_root(ap):
            return False
        # Every prefix of the path must be loop-invariant: check its
        # variables, then the full path and each intermediate reference
        # against the loop's stores and calls.
        if ap.root_symbols() & killed_roots:
            return False
        prefixes = _memory_prefixes(ap)
        for store_ap in store_aps:
            if self._kills(prefixes, store_ap):
                return False
        for call in call_instrs:
            for written in self.modref.call_heap_writes(call):
                if self._kills(prefixes, written):
                    return False
        return True

    def _ensure_preheader(self, loop: NaturalLoop) -> BasicBlock:
        header = loop.header
        preds = self.proc.predecessors()[header]
        outside_preds = [p for p in preds if p not in loop.body]
        if (
            len(outside_preds) == 1
            and outside_preds[0].terminator is not None
            and isinstance(outside_preds[0].terminator, ins.Jump)
        ):
            return outside_preds[0]
        preheader = self.proc.new_block("preheader")
        preheader.terminate(ins.Jump(header))
        for pred in outside_preds:
            _redirect(pred, header, preheader)
        if header is self.proc.entry:
            self.proc.entry = preheader
        return preheader

    def _materialize_load(self, block: BasicBlock, ap: AccessPath) -> None:
        """Emit instructions computing *ap*'s value into its shadow cache.

        Appends before the block's terminator (the block is a preheader,
        so it ends in an unconditional jump)."""
        insert_at = len(block.instrs)

        def emit(instr: ins.Instr) -> ins.Instr:
            nonlocal insert_at
            block.instrs.insert(insert_at, instr)
            insert_at += 1
            return instr

        self._emit_ap_value(emit, ap)
        # The CSE phase will see this load (it generates availability) and
        # will add the shadow store itself; adding it here too would be
        # redundant but harmless — rely on CSE for uniformity.

    def _emit_ap_value(self, emit_raw, ap: AccessPath) -> ins.Temp:
        proc = self.proc

        def emit(instr: ins.Instr) -> ins.Instr:
            # Hoisted loads are *speculative*: like an Alpha non-faulting
            # load, a NIL base or bad index yields a junk default instead
            # of a trap.  The cached value is only consumed where the
            # original load would have executed, by the move that
            # replaced it, and that move keeps the load's check: junk
            # never flows on where the original load would have trapped.
            instr.speculative = True
            return emit_raw(instr)

        if isinstance(ap, VarRoot):
            dest = proc.new_temp()
            emit(ins.LoadVar(dest, ap.symbol))
            return dest
        if isinstance(ap, Deref):
            base_val = self._emit_ap_value(emit, ap.base)
            dest = proc.new_temp()
            emit(ins.LoadInd(dest, base_val, ap))
            return dest
        if isinstance(ap, Qualify):
            base = ap.base
            if isinstance(base, Deref) and isinstance(
                base.type, (ty.RecordType, ty.ArrayType)
            ):
                ptr_val = self._emit_ap_value(emit, base.base)
                dest = proc.new_temp()
                if ap.field == "$data":
                    emit(ins.LoadDopeData(dest, ptr_val, ap))
                elif ap.field == "$count":
                    emit(ins.LoadDopeCount(dest, ptr_val, ap))
                else:
                    emit(ins.LoadField(dest, ptr_val, ap.field, ap))
                return dest
            base_val = self._emit_ap_value(emit, base)
            dest = proc.new_temp()
            emit(ins.LoadField(dest, base_val, ap.field, ap))
            return dest
        if isinstance(ap, Subscript):
            base = ap.base
            assert isinstance(base, Deref) and isinstance(base.type, ty.ArrayType)
            ptr_val = self._emit_ap_value(emit, base.base)
            if base.type.is_open:
                data = proc.new_temp()
                emit(ins.LoadDopeData(data, ptr_val, Qualify(base, "$data", base.type, None)))
                array_val = data
            else:
                array_val = ptr_val
            index_val = proc.new_temp()
            if isinstance(ap.index, ConstIndex):
                emit(ins.ConstInstr(index_val, ap.index.value))
            elif isinstance(ap.index, VarIndex):
                emit(ins.LoadVar(index_val, ap.index.symbol))
            else:  # pragma: no cover - UnknownIndex filtered earlier
                raise AssertionError("unhoistable index survived filtering")
            dest = proc.new_temp()
            emit(ins.LoadElem(dest, array_val, index_val, ap))
            return dest
        raise AssertionError("unexpected AP {!r}".format(ap))


def _memory_prefixes(ap: AccessPath) -> List[AccessPath]:
    """The references *ap* reads memory through, outermost first: each
    of its prefixes but the root variable or fresh object, then *ap*."""
    chain: List[AccessPath] = []
    node: Optional[AccessPath] = ap
    while node is not None and node.base is not None:
        chain.append(node)
        node = node.base
    chain.reverse()
    return chain


def _contains_unknown_index(ap: AccessPath) -> bool:
    node: Optional[AccessPath] = ap
    while node is not None:
        if isinstance(node, Subscript) and isinstance(node.index, UnknownIndex):
            return True
        node = node.base
    return False


def _contains_fresh_root(ap: AccessPath) -> bool:
    return isinstance(ap.root(), FreshRoot)


def _requires_dope(ap: AccessPath) -> bool:
    """True if materialising *ap* emits an implicit dope-vector load."""
    node: Optional[AccessPath] = ap
    while node is not None:
        if isinstance(node, Subscript):
            base = node.base
            if isinstance(base, Deref) and isinstance(base.type, ty.ArrayType) \
                    and base.type.is_open:
                return True
        if isinstance(node, Qualify) and node.field in ("$data", "$count"):
            return True
        node = node.base
    return False


def _redirect(block: BasicBlock, old: BasicBlock, new: BasicBlock) -> None:
    terminator = block.terminator
    if isinstance(terminator, ins.Jump):
        if terminator.target is old:
            terminator.target = new
    elif isinstance(terminator, ins.Branch):
        if terminator.if_true is old:
            terminator.if_true = new
        if terminator.if_false is old:
            terminator.if_false = new
