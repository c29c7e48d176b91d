"""Basic blocks, per-procedure CFGs and the whole-program IR container."""

from typing import Dict, Iterator, List, Optional, Set

from repro.ir import instructions as ins
from repro.ir.access_path import FreshRoot, UnknownIndex
from repro.lang.symtab import Symbol
from repro.lang.typecheck import CheckedModule, CheckedProc, MAIN_PROC
from repro.lang.types import Type


class BasicBlock:
    """A straight-line instruction sequence ending in one terminator."""

    def __init__(self, name: str):
        self.name = name
        self.instrs: List[ins.Instr] = []
        self.terminator: Optional[ins.Instr] = None

    def append(self, instr: ins.Instr) -> ins.Instr:
        assert self.terminator is None, "appending to a terminated block"
        assert not instr.is_terminator
        self.instrs.append(instr)
        return instr

    def terminate(self, instr: ins.Instr) -> None:
        assert self.terminator is None, "block already terminated"
        assert instr.is_terminator
        self.terminator = instr

    @property
    def is_terminated(self) -> bool:
        return self.terminator is not None

    def successors(self) -> List["BasicBlock"]:
        if self.terminator is None:
            return []
        return list(self.terminator.successors)  # type: ignore[attr-defined]

    def all_instrs(self) -> Iterator[ins.Instr]:
        """Body instructions followed by the terminator."""
        yield from self.instrs
        if self.terminator is not None:
            yield self.terminator

    def __repr__(self) -> str:
        return "<BasicBlock {} ({} instrs)>".format(self.name, len(self.instrs))


class ProcIR:
    """The lowered body of one procedure.

    The procedure names everything in it: temporaries, blocks, compiler
    locals, fresh roots and unknown subscripts are numbered here, in the
    order the lowerer and the optimizers ask for them, so the IR of a
    procedure depends on its source alone.
    """

    def __init__(self, name: str, checked: CheckedProc):
        self.name = name
        self.checked = checked
        self.entry = BasicBlock("{}.entry".format(name))
        self.n_temps = 0
        self.n_blocks = 0
        self.n_shadows = 0
        self.n_fresh = 0
        # Every variable a frame of this procedure holds: parameters,
        # locals, WITH and FOR bindings, compiler locals (FOR bounds,
        # CASE selectors, inlined results, RLE caches) and the variables
        # of inlined callees.  Compiler locals are register-class
        # symbols and never count as memory.
        self.variables: List[Symbol] = list(checked.all_symbols)
        # WITH handles: binding symbol -> ('var', sym) | ('handle', sym) |
        # ('heap', ap), describing the location the handle aliases.  Used
        # by mod-ref and RLE to resolve writes through the handle.
        self.handle_targets: Dict[Symbol, tuple] = {}

    def new_temp(self) -> ins.Temp:
        temp = ins.Temp(self.n_temps)
        self.n_temps += 1
        return temp

    def new_block(self, hint: str) -> BasicBlock:
        """A block labelled ``<proc>.<hint><n>``, unique in the procedure."""
        self.n_blocks += 1
        return BasicBlock("{}.{}{}".format(self.name, hint, self.n_blocks - 1))

    def new_shadow(self, hint: str, var_type: Type) -> Symbol:
        """A compiler local named ``<hint.n>``, unique in the procedure."""
        symbol = Symbol("<{}.{}>".format(hint, self.n_shadows),
                        "var", var_type, self.checked.loc,
                        proc_name=self.name)
        self.n_shadows += 1
        self.variables.append(symbol)
        return symbol

    def fresh_root(self, root_type: Type) -> FreshRoot:
        self.n_fresh += 1
        return FreshRoot(self.name, self.n_fresh - 1, root_type)

    def unknown_index(self) -> UnknownIndex:
        self.n_fresh += 1
        return UnknownIndex(self.name, self.n_fresh - 1)

    def blocks(self) -> List[BasicBlock]:
        """All reachable blocks in reverse-postorder from the entry."""
        order: List[BasicBlock] = []
        seen: Set[int] = set()

        def visit(block: BasicBlock) -> None:
            if id(block) in seen:
                return
            seen.add(id(block))
            for succ in block.successors():
                visit(succ)
            order.append(block)

        visit(self.entry)
        order.reverse()
        return order

    def predecessors(self) -> Dict[BasicBlock, List[BasicBlock]]:
        preds: Dict[BasicBlock, List[BasicBlock]] = {b: [] for b in self.blocks()}
        for block in preds:
            for succ in block.successors():
                preds[succ].append(block)
        return preds

    def all_instrs(self) -> Iterator[ins.Instr]:
        for block in self.blocks():
            yield from block.all_instrs()

    def heap_loads(self) -> List[ins.Instr]:
        return [i for i in self.all_instrs() if i.is_heap_load]

    def heap_stores(self) -> List[ins.Instr]:
        return [i for i in self.all_instrs() if i.is_heap_store]

    def __repr__(self) -> str:
        return "<ProcIR {} ({} blocks)>".format(self.name, len(self.blocks()))


class ProgramIR:
    """The lowered whole program: all procedures plus front-end results.

    The module body is the procedure named :data:`repro.lang.typecheck.MAIN_PROC`.
    """

    def __init__(self, checked: CheckedModule):
        self.checked = checked
        self.procs: Dict[str, ProcIR] = {}
        self.proc_order: List[str] = []

    def add_proc(self, proc: ProcIR) -> None:
        self.procs[proc.name] = proc
        self.proc_order.append(proc.name)

    @property
    def main(self) -> ProcIR:
        return self.procs[MAIN_PROC]

    def user_procs(self) -> List[ProcIR]:
        return [self.procs[name] for name in self.proc_order]

    def all_instrs(self) -> Iterator[ins.Instr]:
        for proc in self.user_procs():
            yield from proc.all_instrs()

    def __repr__(self) -> str:
        return "<ProgramIR {} ({} procs)>".format(
            self.checked.name, len(self.procs)
        )
