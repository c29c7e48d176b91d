"""IR interpreter with instruction/load accounting.

Replaces the paper's Alpha simulator + ATOM instrumentation.  Counting
conventions (Table 4 of the paper):

* **instructions** — every executed IR instruction, terminators included;
* **heap loads** — LoadField / LoadElem / LoadDopeData / LoadDopeCount,
  and LoadInd when the handle resolves into the heap;
* **other loads** — LoadVar of globals, and LoadInd hitting a variable
  slot.  Reads of locals, parameters and temps are register traffic (the
  paper's baseline ran GCC's register allocator).

``tracer`` (when given) observes every *heap* load and store with its
simulated address, loaded/stored value, instruction and activation id —
the information ATOM recorded for the limit study.

Execution is *pre-decoded*.  The first time a run enters a basic block,
the block is decoded into a tuple of closures, one per instruction, each
specialised for its instruction: temp and variable slots, field names,
the operator function, a global's address, and whether a machine model
or a tracer is attached are fixed at decode time, so executing an
instruction is one call with no dispatch.  The terminator becomes a
``(kind, operands)`` record.  A frame is one flat list — temps, then a
slot per variable, then the activation id — copied from a per-procedure
template that holds the variables' defaults.

The counts are those of executing one instruction at a time: a counted
body instruction is counted *before* it runs, so one that traps is
counted, and a terminator after its block; the step budget and the
deadline poll (every 2048 instructions) run at every terminator,
callees' included.  A block's counts are therefore added in segments:
a call adds the counted instructions since the previous call, itself
included, before it enters the callee; the terminator adds the rest;
and when an instruction raises, the block loop adds those up to and
including it.

Decoded code lives for one run.  Its closures refer back to the
interpreter, so ``run()`` drops it on the way out; kept, it would form
a reference cycle that holds the run's simulated heap until the next
full garbage collection.

Cache simulation is *deferred*: during execution every counted memory
access appends its address to a log, and the machine model replays the
log once the program finishes.  A direct-mapped cache depends only on
the access order, which the log preserves, so hits/misses/cycles are
bit-identical to eager simulation — but interpretation and cache
simulation become two separately-timed phases (``run.interp`` and
``run.cachesim`` spans) and the per-access cost drops to a list append.
"""

import operator
import sys
from typing import Callable, Dict, List, Optional, Tuple

from repro.ir import instructions as ins
from repro.ir.cfg import BasicBlock, ProcIR, ProgramIR
from repro.lang import types as ty
from repro.lang.errors import ResourceLimitError
from repro.obs import core as obs
from repro.obs import metrics
from repro.qa import guards
from repro.lang.symtab import Symbol
from repro.lang.typecheck import MAIN_PROC
from repro.runtime.machine import MachineModel
from repro.runtime.values import (
    ArrayRef,
    DopeRef,
    ElemLoc,
    FieldLoc,
    HeapAllocator,
    M3RuntimeError,
    ObjectRef,
    RecordRef,
    VarLoc,
    default_value,
)

_GLOBAL_BASE = 0x1000
_STACK_BASE = 0x8000_0000
#: Instructions between two polls of the wall-clock deadline.
_POLL_EVERY = 2048

#: Terminator kinds of a decoded block.
_JUMP, _BRANCH, _RETURN = range(3)

#: A decoded instruction: runs it against a frame.
Op = Callable[[list], None]
#: ``(ops, fixups, tail, kind, x, y, z)`` — see ``Interpreter._decode_block``.
Code = Tuple[Tuple[Op, ...], Tuple[int, ...], int, int, object, object, object]


class ExecutionStats:
    """Counters produced by one program run."""

    def __init__(self) -> None:
        self.instructions = 0
        self.heap_loads = 0
        self.other_loads = 0
        self.heap_stores = 0
        self.other_stores = 0
        self.calls = 0
        self.allocations = 0
        self.cycles = 0
        self.output: List[str] = []

    @property
    def loads(self) -> int:
        return self.heap_loads + self.other_loads

    @property
    def heap_load_fraction(self) -> float:
        return self.heap_loads / self.instructions if self.instructions else 0.0

    @property
    def other_load_fraction(self) -> float:
        return self.other_loads / self.instructions if self.instructions else 0.0

    def output_text(self) -> str:
        return "".join(self.output)

    def __repr__(self) -> str:
        return (
            "<ExecutionStats instrs={} heap_loads={} other_loads={} cycles={}>"
            .format(self.instructions, self.heap_loads, self.other_loads, self.cycles)
        )


class _Proc:
    """A procedure's frame layout, built on its first call in a run.

    A frame is one list: the temps, one slot per variable, then the
    activation id and the activation's ``AddrVar`` address table.
    """

    __slots__ = ("ir", "slots", "params", "act", "template")

    def __init__(self, proc: ProcIR):
        self.ir = proc
        # A slot per variable, holding its type's default.
        self.slots: Dict[Symbol, int] = {}
        template: List[object] = [None] * proc.n_temps
        for symbol in proc.variables:
            self.slots[symbol] = len(template)
            template.append(None if symbol.type is None else default_value(symbol.type))
        self.params = [self.slots[symbol] for symbol in proc.checked.params]
        self.act = len(template)
        self.template = template + [0, None]


class Interpreter:
    """Executes a :class:`~repro.ir.cfg.ProgramIR`."""

    def __init__(
        self,
        program: ProgramIR,
        machine: Optional[MachineModel] = None,
        tracer: Optional[object] = None,
        max_steps: Optional[int] = None,
        deadline: Optional["guards.Deadline"] = None,
    ):
        self.program = program
        self.machine = machine
        self.tracer = tracer
        self.max_steps = max_steps
        self.deadline = deadline
        self.stats = ExecutionStats()
        self.heap = HeapAllocator()
        self.globals: List[object] = []
        self._global_slot: Dict[Symbol, int] = {}
        self._activations = 0
        # Deferred cache simulation: loads append ``addr``, stores append
        # ``~addr`` (addresses are non-negative, so the complement is an
        # unambiguous store marker).  Replayed by ``run()``.
        self._mem_log: List[int] = []
        # The current run's decoded code (None between runs).
        self._procs: Optional[Dict[str, _Proc]] = None
        self._blocks: Optional[Dict[BasicBlock, Code]] = None
        for i, symbol in enumerate(program.checked.globals):
            assert symbol.type is not None
            self._global_slot[symbol] = i
            self.globals.append(default_value(symbol.type))

    def run(self) -> ExecutionStats:
        """Execute the module body and return the statistics."""
        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(old_limit, 100_000))
        self._procs, self._blocks = {}, {}
        try:
            with obs.span("run.interp", module=self.program.checked.name):
                self._enter(MAIN_PROC, [])
        finally:
            self._procs = self._blocks = None  # see the module docstring
            sys.setrecursionlimit(old_limit)
            # Replay (and export counters) even when execution dies on a
            # trap or resource limit, so partial runs stay accounted for.
            if self.machine is not None and self._mem_log:
                with obs.span("run.cachesim", accesses=len(self._mem_log)):
                    self.machine.replay(self._mem_log)
                self._mem_log = []
            self._export_metrics()
        self.stats.allocations = self.heap.allocations
        self.stats.cycles = self.stats.instructions + (
            self.machine.cycles if self.machine else 0
        )
        return self.stats

    def _export_metrics(self) -> None:
        """Bulk-increment the registry counters for this run (one call
        per series, never per event, so the hot loop stays untouched)."""
        registry = metrics.registry()
        stats = self.stats
        registry.counter("run.interp.instructions").inc(stats.instructions)
        registry.counter("run.interp.heap_loads").inc(stats.heap_loads)
        registry.counter("run.interp.heap_stores").inc(stats.heap_stores)
        registry.counter("run.interp.other_loads").inc(stats.other_loads)
        registry.counter("run.interp.calls").inc(stats.calls)
        if self.machine is not None:
            cache = self.machine.cache
            registry.counter("run.cachesim.hits").inc(cache.hits)
            registry.counter("run.cachesim.misses").inc(cache.misses)

    # ------------------------------------------------------------------
    # Procedure execution

    def _enter(self, name: str, args: List[object]) -> object:
        """Call procedure *name*: build its frame, then run its blocks."""
        proc = self._procs.get(name)
        if proc is None:
            proc = self._procs[name] = _Proc(self.program.procs[name])
        stats = self.stats
        self._activations += 1
        stats.calls += 1
        t = proc.template.copy()
        t[proc.act] = self._activations
        for slot, value in zip(proc.params, args):
            t[slot] = value
        blocks = self._blocks
        block = proc.ir.entry
        max_steps = self.max_steps
        last_poll = stats.instructions
        # The first count at which the step budget or the poll is due.
        check_at = last_poll + _POLL_EVERY
        if max_steps is not None:
            check_at = min(check_at, max_steps + 1)
        while True:
            code = blocks.get(block)
            if code is None:
                code = blocks[block] = self._decode_block(proc, block)
            ops, fixups, tail, kind, x, y, z = code
            it = iter(ops)
            try:
                for op in it:
                    op(t)
            except BaseException:
                # ``it`` stopped just past the op that raised.
                stats.instructions += fixups[len(ops) - 1 - it.__length_hint__()]
                raise
            stats.instructions += tail
            if stats.instructions >= check_at:
                count = stats.instructions
                if max_steps is not None and count > max_steps:
                    raise ResourceLimitError(
                        "execution exceeded the step budget of {}".format(max_steps),
                        kind="steps",
                    )
                # Poll the wall clock every ~2048 instructions: cheap
                # enough to leave on, frequent enough that runaway
                # programs (and runaway *interpretation*) die promptly.
                if count - last_poll >= _POLL_EVERY:
                    last_poll = count
                    if self.deadline is not None:
                        self.deadline.check()
                    else:
                        guards.check_active()
                check_at = last_poll + _POLL_EVERY
                if max_steps is not None:
                    check_at = min(check_at, max_steps + 1)
            if kind is _BRANCH:
                block = y if t[x] else z
            elif kind is _JUMP:
                block = x
            else:
                return None if x is None else t[x]

    # ------------------------------------------------------------------
    # Decoding

    def _decode_block(self, proc: _Proc, block: BasicBlock) -> Code:
        """Decode *block* into ``(ops, fixups, tail, kind, x, y, z)``.

        ``fixups[i]`` is added to the instruction count when op *i*
        raises, ``tail`` once every op ran (the terminator included); a
        call op adds its own share before it enters the callee.  ``kind``
        and ``x, y, z`` are the terminator: a jump's target, a branch's
        condition slot and targets, or a return's value slot.
        """
        ops: List[Op] = []
        fixups: List[int] = []
        pending = 0
        for instr in block.instrs:
            pending += instr.counted
            if instr.is_call:
                ops.append(self._decode_call(proc, instr, pending))
                pending = 0
            else:
                decode = _DECODERS.get(type(instr))
                if decode is None:  # pragma: no cover
                    raise M3RuntimeError("unknown instruction {!r}".format(instr))
                ops.append(decode(self, proc, instr))
            fixups.append(pending)
        term = block.terminator
        if term is None:
            ops.append(_fell_off(proc.ir.name, block.name))
            fixups.append(pending)
            return tuple(ops), tuple(fixups), 0, _RETURN, None, None, None
        if isinstance(term, ins.Jump):
            record = (_JUMP, term.target, None, None)
        elif isinstance(term, ins.Branch):
            record = (_BRANCH, term.cond.index, term.if_true, term.if_false)
        elif isinstance(term, ins.Return):
            value = None if term.value is None else term.value.index
            record = (_RETURN, value, None, None)
        else:  # pragma: no cover
            raise M3RuntimeError("unknown terminator {!r}".format(term))
        return (tuple(ops), tuple(fixups), pending + 1) + record

    def _hooks(self) -> Tuple[Optional[Callable], Optional[Callable], Optional[Callable]]:
        """The access log's ``append`` (with a machine model) and the
        tracer's ``on_load``/``on_store`` (with a tracer), else None."""
        log = self._mem_log.append if self.machine is not None else None
        if not self.tracer:
            return log, None, None
        return log, self.tracer.on_load, self.tracer.on_store

    # -- scalar plumbing -------------------------------------------------

    def _decode_const(self, proc: _Proc, instr: ins.ConstInstr) -> Op:
        d, value = instr.dest.index, instr.value

        def op(t):
            t[d] = value
        return op

    def _decode_move(self, proc: _Proc, instr: ins.Move) -> Op:
        return _copy(instr.dest.index, instr.src.index)

    def _decode_loadvar(self, proc: _Proc, instr: ins.LoadVar) -> Op:
        d, symbol = instr.dest.index, instr.symbol
        if instr.checks is not None:
            return _checked_copy(d, proc.slots[symbol], instr.checks)
        if not symbol.is_global:
            return _copy(d, proc.slots[symbol])
        g, i = self.globals, self._global_slot[symbol]
        addr = _GLOBAL_BASE + i * 8
        stats, log = self.stats, self._hooks()[0]

        def op(t):
            t[d] = g[i]
            stats.other_loads += 1
            if log is not None:
                log(addr)
        return op

    def _decode_storevar(self, proc: _Proc, instr: ins.StoreVar) -> Op:
        s, symbol = instr.src.index, instr.symbol
        if not symbol.is_global:
            return _copy(proc.slots[symbol], s)
        g, i = self.globals, self._global_slot[symbol]
        mark = ~(_GLOBAL_BASE + i * 8)
        stats, log = self.stats, self._hooks()[0]

        def op(t):
            g[i] = t[s]
            stats.other_stores += 1
            if log is not None:
                log(mark)
        return op

    def _decode_binop(self, proc: _Proc, instr: ins.BinOp) -> Op:
        d, a, b = instr.dest.index, instr.left.index, instr.right.index
        fn = _BINOPS[instr.op]

        def op(t):
            t[d] = fn(t[a], t[b])
        return op

    def _decode_unop(self, proc: _Proc, instr: ins.UnOp) -> Op:
        d, a = instr.dest.index, instr.operand.index
        fn = operator.neg if instr.op == "neg" else operator.not_

        def op(t):
            t[d] = fn(t[a])
        return op

    # -- heap loads/stores -----------------------------------------------

    def _decode_loadfield(self, proc: _Proc, instr: ins.LoadField) -> Op:
        d, b, field = instr.dest.index, instr.base.index, instr.field
        spec, loc, act = instr.speculative, instr.loc, proc.act
        stats = self.stats
        log, on_load, _ = self._hooks()
        watch = log is not None or on_load is not None

        def op(t):
            base = t[b]
            if base is None:
                if spec:
                    t[d] = None
                    return
                raise M3RuntimeError("NIL dereference at {}".format(loc))
            value = base.slots[field]
            stats.heap_loads += 1
            if watch:
                addr = base.addr + base.offsets[field]
                if log is not None:
                    log(addr)
                if on_load is not None:
                    on_load(instr, addr, value, t[act])
            t[d] = value
        return op

    def _decode_storefield(self, proc: _Proc, instr: ins.StoreField) -> Op:
        b, field, s = instr.base.index, instr.field, instr.src.index
        loc, act = instr.loc, proc.act
        stats = self.stats
        log, _, on_store = self._hooks()
        watch = log is not None or on_store is not None

        def op(t):
            base = t[b]
            if base is None:
                raise M3RuntimeError("NIL dereference at {}".format(loc))
            value = t[s]
            base.slots[field] = value
            stats.heap_stores += 1
            if watch:
                addr = base.addr + base.offsets[field]
                if log is not None:
                    log(~addr)
                if on_store is not None:
                    on_store(instr, addr, value, t[act])
        return op

    def _decode_loadelem(self, proc: _Proc, instr: ins.LoadElem) -> Op:
        d, b, x = instr.dest.index, instr.base.index, instr.index.index
        spec, loc, act = instr.speculative, instr.loc, proc.act
        stats = self.stats
        log, on_load, _ = self._hooks()

        def op(t):
            array = t[b]
            index = t[x]
            if spec and (
                array is None
                or not isinstance(index, int)
                or index < 0
                or index >= len(array.data)
            ):
                t[d] = None
                return
            if array is None:
                raise M3RuntimeError("NIL array at {}".format(loc))
            array.check_index(index)
            value = array.data[index]
            stats.heap_loads += 1
            if log is not None:
                log(array.elem_addr(index))
            if on_load is not None:
                on_load(instr, array.elem_addr(index), value, t[act])
            t[d] = value
        return op

    def _decode_storeelem(self, proc: _Proc, instr: ins.StoreElem) -> Op:
        b, x, s = instr.base.index, instr.index.index, instr.src.index
        loc, act = instr.loc, proc.act
        stats = self.stats
        log, _, on_store = self._hooks()

        def op(t):
            array = t[b]
            if array is None:
                raise M3RuntimeError("NIL array at {}".format(loc))
            index = t[x]
            array.check_index(index)
            value = t[s]
            array.data[index] = value
            stats.heap_stores += 1
            if log is not None:
                log(~array.elem_addr(index))
            if on_store is not None:
                on_store(instr, array.elem_addr(index), value, t[act])
        return op

    def _decode_dope(self, proc: _Proc, instr: ins.Instr) -> Op:
        """``LoadDopeData`` and ``LoadDopeCount``."""
        count = isinstance(instr, ins.LoadDopeCount)
        offset = DopeRef.COUNT_OFFSET if count else DopeRef.DATA_OFFSET
        junk = 0 if count else None  # a speculative load's NIL default
        d, b = instr.dest.index, instr.base.index
        spec, loc, act = instr.speculative, instr.loc, proc.act
        stats = self.stats
        log, on_load, _ = self._hooks()

        def op(t):
            dope = t[b]
            if dope is None:
                if spec:
                    t[d] = junk
                    return
                raise M3RuntimeError("NIL open array at {}".format(loc))
            value = dope.count if count else dope.data
            stats.heap_loads += 1
            if log is not None:
                log(dope.addr + offset)
            if on_load is not None:
                on_load(instr, dope.addr + offset, value, t[act])
            t[d] = value
        return op

    # -- indirect (handles and scalar REF cells) ---------------------------

    def _decode_loadind(self, proc: _Proc, instr: ins.LoadInd) -> Op:
        d, h = instr.dest.index, instr.handle.index
        spec, loc, act = instr.speculative, instr.loc, proc.act
        stats = self.stats
        log, on_load, _ = self._hooks()

        def op(t):
            handle = t[h]
            if handle is None:
                if spec:
                    t[d] = None
                    return
                raise M3RuntimeError("NIL dereference at {}".format(loc))
            if isinstance(handle, VarLoc):
                value = handle.cells[handle.index]
                stats.other_loads += 1
                if log is not None:
                    log(handle.addr)
                t[d] = value
                return
            cells, key, addr = _heap_cell(handle, "load")
            value = cells[key]
            stats.heap_loads += 1
            if log is not None:
                log(addr)
            if on_load is not None:
                on_load(instr, addr, value, t[act])
            t[d] = value
        return op

    def _decode_storeind(self, proc: _Proc, instr: ins.StoreInd) -> Op:
        h, s, loc, act = instr.handle.index, instr.src.index, instr.loc, proc.act
        stats = self.stats
        log, _, on_store = self._hooks()

        def op(t):
            handle = t[h]
            value = t[s]
            if handle is None:
                raise M3RuntimeError("NIL dereference at {}".format(loc))
            if isinstance(handle, VarLoc):
                handle.cells[handle.index] = value
                stats.other_stores += 1
                if log is not None:
                    log(~handle.addr)
                return
            cells, key, addr = _heap_cell(handle, "store")
            cells[key] = value
            stats.heap_stores += 1
            if log is not None:
                log(~addr)
            if on_store is not None:
                on_store(instr, addr, value, t[act])
        return op

    # -- address-of --------------------------------------------------------

    def _decode_addrvar(self, proc: _Proc, instr: ins.AddrVar) -> Op:
        d, symbol = instr.dest.index, instr.symbol
        if symbol.is_global:
            g, i = self.globals, self._global_slot[symbol]
            addr = _GLOBAL_BASE + i * 8

            def op(t):
                t[d] = VarLoc(g, i, symbol, addr)
            return op
        slot, act = proc.slots[symbol], proc.act

        def op(t):
            # Stack addresses go out in order of first use per activation.
            addrs = t[act + 1]
            if addrs is None:
                addrs = t[act + 1] = {}
            addr = addrs.get(symbol)
            if addr is None:
                base = _STACK_BASE + (t[act] % 4096) * 512
                addr = addrs[symbol] = base + len(addrs) * 8
            t[d] = VarLoc(t, slot, symbol, addr)
        return op

    def _decode_addrfield(self, proc: _Proc, instr: ins.AddrField) -> Op:
        d, b, field, loc = instr.dest.index, instr.base.index, instr.field, instr.loc

        def op(t):
            base = t[b]
            if base is None:
                raise M3RuntimeError("NIL dereference at {}".format(loc))
            t[d] = FieldLoc(base, field)
        return op

    def _decode_addrelem(self, proc: _Proc, instr: ins.AddrElem) -> Op:
        d, b, x, loc = instr.dest.index, instr.base.index, instr.index.index, instr.loc

        def op(t):
            array = t[b]
            if array is None:
                raise M3RuntimeError("NIL array at {}".format(loc))
            index = t[x]
            array.check_index(index)
            t[d] = ElemLoc(array, index)
        return op

    # -- allocation ---------------------------------------------------------

    def _decode_newobject(self, proc: _Proc, instr: ins.NewObject) -> Op:
        d, otype, allocate = instr.dest.index, instr.object_type, self.heap.allocate
        size, layout = ObjectRef.size_of(otype), ObjectRef.layout(otype)

        def op(t):
            t[d] = ObjectRef(otype, allocate(size), layout)
        return op

    def _decode_newrecord(self, proc: _Proc, instr: ins.NewRecord) -> Op:
        d, rtype, allocate = instr.dest.index, instr.ref_type, self.heap.allocate
        size = RecordRef.size_of(rtype)

        def op(t):
            t[d] = RecordRef(rtype, allocate(size))
        return op

    def _decode_newfixedarray(self, proc: _Proc, instr: ins.NewFixedArray) -> Op:
        target = instr.ref_type.target
        assert isinstance(target, ty.ArrayType) and target.length is not None
        d, element, length = instr.dest.index, target.element, target.length
        size, allocate = ArrayRef.size_of(element, length), self.heap.allocate

        def op(t):
            t[d] = ArrayRef(element, length, allocate(size))
        return op

    def _decode_newopenarray(self, proc: _Proc, instr: ins.NewOpenArray) -> Op:
        target = instr.ref_type.target
        assert isinstance(target, ty.ArrayType) and target.is_open
        d, n, element, allocate = (
            instr.dest.index, instr.size.index, target.element, self.heap.allocate)

        def op(t):
            size = t[n]
            if not isinstance(size, int) or size < 0:
                raise M3RuntimeError("bad open array size {!r}".format(size))
            data = ArrayRef(element, size, allocate(ArrayRef.size_of(element, size)))
            t[d] = DopeRef(data, allocate(DopeRef.SIZE))
        return op

    # -- calls ---------------------------------------------------------------

    def _decode_call(self, proc: _Proc, instr: ins.Instr, count: int) -> Op:
        """``Call`` and ``CallMethod``.  *count* is the block's counted
        instructions since the previous call, this one included: added
        before the callee runs, so its terminators see them."""
        stats, enter, machine = self.stats, self._enter, self.machine
        args = tuple(a.index for a in instr.args)
        d = None if instr.dest is None else instr.dest.index
        if isinstance(instr, ins.Call):
            name = instr.proc_name
            overhead = machine.CALL_OVERHEAD if machine is not None else 0

            def op(t):
                stats.instructions += count
                if machine is not None:
                    machine.cycles += overhead
                result = enter(name, [t[a] for a in args])
                if d is not None:
                    t[d] = result
            return op

        r, method, loc = instr.receiver.index, instr.method_name, instr.loc
        overhead = (
            machine.CALL_OVERHEAD + machine.METHOD_DISPATCH_OVERHEAD
            if machine is not None else 0
        )
        impls: Dict[ty.ObjectType, str] = {}  # receiver type -> procedure

        def op(t):
            stats.instructions += count
            receiver = t[r]
            if receiver is None:
                raise M3RuntimeError("method call on NIL at {}".format(loc))
            otype = receiver.otype
            impl = impls.get(otype)
            if impl is None:
                impl = otype.method_impl(method)
                if impl is None:
                    raise M3RuntimeError(
                        "method {} unimplemented for {}".format(method, otype.name))
                impls[otype] = impl
            if machine is not None:
                machine.cycles += overhead
            result = enter(impl, [receiver] + [t[a] for a in args])
            if d is not None:
                t[d] = result
        return op

    def _decode_builtin(self, proc: _Proc, instr: ins.Builtin) -> Op:
        name, out = instr.name, self.stats.output.append
        if name in ("PutText", "PutChar"):
            fn = out
        elif name == "PutInt":
            def fn(value):
                out(str(value))
        elif name == "ASSERT":
            loc = instr.loc

            def fn(cond):
                if not cond:
                    raise M3RuntimeError("assertion failed at {}".format(loc))
        else:
            fn = _BUILTINS[name]
        args = tuple(a.index for a in instr.args)
        d = None if instr.dest is None else instr.dest.index

        def op(t):
            result = fn(*[t[a] for a in args])
            if d is not None:
                t[d] = result
        return op

    def _decode_typetest(self, proc: _Proc, instr: ins.TypeTest) -> Op:
        d, s, below = instr.dest.index, instr.src.index, _Subtypes(instr.target_type)

        def op(t):
            value = t[s]
            # NIL is a member of every object type.
            t[d] = value is None or (isinstance(value, ObjectRef) and below[value.otype])
        return op

    def _decode_narrow(self, proc: _Proc, instr: ins.NarrowChk) -> Op:
        d, s, target, loc = instr.dest.index, instr.src.index, instr.target_type, instr.loc
        below = _Subtypes(target)

        def op(t):
            value = t[s]
            if value is not None and not (
                isinstance(value, ObjectRef) and below[value.otype]
            ):
                raise M3RuntimeError(
                    "NARROW to {} fails at {}".format(target.name, loc))
            t[d] = value
        return op


# ----------------------------------------------------------------------
# Decoding helpers


def _copy(d: int, s: int) -> Op:
    """A register move; also a local variable's load or store, since
    variables live in frame slots next to the temps."""

    def op(t):
        t[d] = t[s]
    return op


def _checked_copy(d: int, s: int, load: ins.Instr) -> Op:
    """A move that replaced the eliminated heap *load*: it traps where
    the load would have, with the load's message, and otherwise copies
    the cached value."""
    b, loc = load.sources[0].index, load.loc
    if isinstance(load, ins.LoadElem):
        x = load.index.index

        def op(t):
            array = t[b]
            if array is None:
                raise M3RuntimeError("NIL array at {}".format(loc))
            array.check_index(t[x])
            t[d] = t[s]
        return op
    message = "NIL {} at {}".format("open array" if load.is_dope else "dereference", loc)

    def op(t):
        if t[b] is None:
            raise M3RuntimeError(message)
        t[d] = t[s]
    return op


def _fell_off(proc_name: str, block_name: str) -> Op:
    def op(t):
        raise M3RuntimeError(
            "procedure {} fell off the end of block {}".format(proc_name, block_name))
    return op


def _heap_cell(handle: object, access: str) -> Tuple[object, object, int]:
    """``(cells, key, addr)`` of the heap location a handle names — a
    field, an element or a scalar REF cell — for an indirect *access*."""
    if isinstance(handle, FieldLoc):
        return handle.ref.slots, handle.field, handle.ref.field_addr(handle.field)
    if isinstance(handle, ElemLoc):
        handle.array.check_index(handle.index)
        return handle.array.data, handle.index, handle.array.elem_addr(handle.index)
    if isinstance(handle, RecordRef):
        slot = RecordRef.SCALAR_SLOT
        return handle.slots, slot, handle.field_addr(slot)
    raise M3RuntimeError("bad indirect {} target {!r}".format(access, handle))


class _Subtypes(dict):
    """Object type -> whether it is a subtype of *target*, computed on
    first use (``is_subtype`` walks the ancestor chain)."""

    def __init__(self, target: ty.ObjectType):
        super().__init__()
        self.target = target

    def __missing__(self, otype: ty.ObjectType) -> bool:
        result = self[otype] = ty.is_subtype(otype, self.target)
        return result


_DECODERS: Dict[type, Callable[[Interpreter, _Proc, ins.Instr], Op]] = {
    ins.ConstInstr: Interpreter._decode_const,
    ins.Move: Interpreter._decode_move,
    ins.LoadVar: Interpreter._decode_loadvar,
    ins.StoreVar: Interpreter._decode_storevar,
    ins.BinOp: Interpreter._decode_binop,
    ins.UnOp: Interpreter._decode_unop,
    ins.LoadField: Interpreter._decode_loadfield,
    ins.StoreField: Interpreter._decode_storefield,
    ins.LoadElem: Interpreter._decode_loadelem,
    ins.StoreElem: Interpreter._decode_storeelem,
    ins.LoadDopeData: Interpreter._decode_dope,
    ins.LoadDopeCount: Interpreter._decode_dope,
    ins.LoadInd: Interpreter._decode_loadind,
    ins.StoreInd: Interpreter._decode_storeind,
    ins.AddrVar: Interpreter._decode_addrvar,
    ins.AddrField: Interpreter._decode_addrfield,
    ins.AddrElem: Interpreter._decode_addrelem,
    ins.NewObject: Interpreter._decode_newobject,
    ins.NewRecord: Interpreter._decode_newrecord,
    ins.NewFixedArray: Interpreter._decode_newfixedarray,
    ins.NewOpenArray: Interpreter._decode_newopenarray,
    ins.Builtin: Interpreter._decode_builtin,
    ins.TypeTest: Interpreter._decode_typetest,
    ins.NarrowChk: Interpreter._decode_narrow,
}


# ----------------------------------------------------------------------
# Operator and builtin tables


def _div(a: int, b: int) -> int:
    if b == 0:
        raise M3RuntimeError("DIV by zero")
    return a // b


def _mod(a: int, b: int) -> int:
    if b == 0:
        raise M3RuntimeError("MOD by zero")
    return a % b


_BINOPS: Dict[str, Callable[[object, object], object]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "DIV": _div,
    "MOD": _mod,
    "=": operator.eq,
    "#": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "AND": lambda a, b: bool(a and b),
    "OR": lambda a, b: bool(a or b),
}


def _val(code: int) -> str:
    """``VAL (code, CHAR)``."""
    try:
        return chr(code)
    except (ValueError, OverflowError, TypeError):
        raise M3RuntimeError("VAL ({}, CHAR) out of range".format(code)) from None


def _text_char(text: str, index: int) -> str:
    if not isinstance(index, int) or index < 0 or index >= len(text):
        raise M3RuntimeError("TextChar index {} out of range".format(index))
    return text[index]


#: The builtins that compute a value; output and ASSERT are decoded
#: against the run's output list and the instruction's location.
_BUILTINS: Dict[str, Callable[..., object]] = {
    "ORD": lambda c: ord(c) if isinstance(c, str) else int(c),
    "VAL": _val,
    "ABS": abs,
    "MIN": min,
    "MAX": max,
    "TextLen": len,
    "TextChar": _text_char,
    "TextCat": operator.add,
    "IntToText": str,
    "CharToText": lambda c: c,
}
