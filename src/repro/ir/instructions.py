"""IR instruction set.

Three-address code over virtual registers (:class:`Temp`).  Memory is
explicit: variable slots are read/written by ``LoadVar``/``StoreVar``,
heap cells by the Load*/Store* families, each of which carries the
:class:`~repro.ir.access_path.AccessPath` it realises.

Classification used by the metrics (Table 4 of the paper):

* **heap loads** — ``LoadField``, ``LoadElem``, ``LoadDopeData``,
  ``LoadDopeCount``, and ``LoadInd`` when the handle points into the heap;
* **other loads** — ``LoadVar`` of a *global* (module-level) variable, and
  ``LoadInd`` hitting a stack slot.  Reads of locals and parameters are
  register accesses (we model the register allocation GCC performed for
  the paper's baseline by keeping scalars in registers).

``LoadDopeData``/``LoadDopeCount`` are the implicit dope-vector accesses
of open arrays.  They are *invisible to RLE* — the paper's optimizer works
on the AST where these loads do not appear, which is exactly why
"Encapsulation" dominates its Figure 10.  The flag ``is_dope`` lets the
limit study classify them.
"""

from typing import List, Optional, Sequence

from repro.ir.access_path import AccessPath
from repro.lang.errors import SourceLocation, UNKNOWN_LOCATION
from repro.lang.symtab import Symbol
from repro.lang.types import ObjectType, RefType


class Temp:
    """A virtual register, unique within its procedure."""

    __slots__ = ("index",)

    def __init__(self, index: int):
        self.index = index

    def __repr__(self) -> str:
        return "t{}".format(self.index)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Temp) and other.index == self.index

    def __hash__(self) -> int:
        return hash(("temp", self.index))


class Instr:
    """Base instruction.  Subclasses set the class attributes below."""

    is_heap_load = False
    is_heap_store = False
    is_dope = False
    is_call = False
    is_terminator = False
    #: Set on loads re-materialised by the hoister: a NIL base or bad
    #: index yields a junk default instead of a trap (non-faulting load).
    speculative = False
    #: False for register-allocation artifacts (RLE shadow moves, inline
    #: parameter bindings): they cost nothing on a real machine, so the
    #: interpreter excludes them from instruction counts and cycles.
    counted = True

    def __init__(self, loc: SourceLocation = UNKNOWN_LOCATION):
        self.loc = loc

    @property
    def dest(self) -> Optional[Temp]:
        return None

    @property
    def sources(self) -> Sequence[Temp]:
        return ()

    @property
    def ap(self) -> Optional[AccessPath]:
        return None

    def __repr__(self) -> str:
        return "<{} at {}>".format(type(self).__name__, self.loc)


# ----------------------------------------------------------------------
# Constants, moves, variables


class ConstInstr(Instr):
    """dest := literal (int, bool, char, text, or None for NIL)."""

    def __init__(self, dest: Temp, value: object, loc=UNKNOWN_LOCATION):
        super().__init__(loc)
        self._dest = dest
        self.value = value

    @property
    def dest(self) -> Temp:
        return self._dest


class Move(Instr):
    """dest := src (register copy; free in the cost model)."""

    def __init__(self, dest: Temp, src: Temp, loc=UNKNOWN_LOCATION):
        super().__init__(loc)
        self._dest = dest
        self.src = src

    @property
    def dest(self) -> Temp:
        return self._dest

    @property
    def sources(self) -> Sequence[Temp]:
        return (self.src,)


class LoadVar(Instr):
    """dest := variable slot.  A memory access only for globals."""

    def __init__(self, dest: Temp, symbol: Symbol, loc=UNKNOWN_LOCATION):
        super().__init__(loc)
        self._dest = dest
        self.symbol = symbol

    @property
    def dest(self) -> Temp:
        return self._dest


class StoreVar(Instr):
    """variable slot := src."""

    def __init__(self, symbol: Symbol, src: Temp, loc=UNKNOWN_LOCATION):
        super().__init__(loc)
        self.symbol = symbol
        self.src = src

    @property
    def sources(self) -> Sequence[Temp]:
        return (self.src,)


class BinOp(Instr):
    """dest := left <op> right."""

    def __init__(self, dest: Temp, op: str, left: Temp, right: Temp, loc=UNKNOWN_LOCATION):
        super().__init__(loc)
        self._dest = dest
        self.op = op
        self.left = left
        self.right = right

    @property
    def dest(self) -> Temp:
        return self._dest

    @property
    def sources(self) -> Sequence[Temp]:
        return (self.left, self.right)


class UnOp(Instr):
    """dest := <op> operand."""

    def __init__(self, dest: Temp, op: str, operand: Temp, loc=UNKNOWN_LOCATION):
        super().__init__(loc)
        self._dest = dest
        self.op = op
        self.operand = operand

    @property
    def dest(self) -> Temp:
        return self._dest

    @property
    def sources(self) -> Sequence[Temp]:
        return (self.operand,)


# ----------------------------------------------------------------------
# Heap accesses (all carry an AccessPath)


class _MemInstr(Instr):
    def __init__(self, ap: AccessPath, loc=UNKNOWN_LOCATION):
        super().__init__(loc)
        self._ap = ap

    @property
    def ap(self) -> AccessPath:
        return self._ap


class LoadField(_MemInstr):
    """dest := base.field — heap load (Qualify AP)."""

    is_heap_load = True

    def __init__(self, dest: Temp, base: Temp, field: str, ap: AccessPath, loc=UNKNOWN_LOCATION):
        super().__init__(ap, loc)
        self._dest = dest
        self.base = base
        self.field = field

    @property
    def dest(self) -> Temp:
        return self._dest

    @property
    def sources(self) -> Sequence[Temp]:
        return (self.base,)


class StoreField(_MemInstr):
    """base.field := src — heap store."""

    is_heap_store = True

    def __init__(self, base: Temp, field: str, src: Temp, ap: AccessPath, loc=UNKNOWN_LOCATION):
        super().__init__(ap, loc)
        self.base = base
        self.field = field
        self.src = src

    @property
    def sources(self) -> Sequence[Temp]:
        return (self.base, self.src)


class LoadElem(_MemInstr):
    """dest := base[index] — heap load (Subscript AP)."""

    is_heap_load = True

    def __init__(self, dest: Temp, base: Temp, index: Temp, ap: AccessPath, loc=UNKNOWN_LOCATION):
        super().__init__(ap, loc)
        self._dest = dest
        self.base = base
        self.index = index

    @property
    def dest(self) -> Temp:
        return self._dest

    @property
    def sources(self) -> Sequence[Temp]:
        return (self.base, self.index)


class StoreElem(_MemInstr):
    """base[index] := src — heap store."""

    is_heap_store = True

    def __init__(self, base: Temp, index: Temp, src: Temp, ap: AccessPath, loc=UNKNOWN_LOCATION):
        super().__init__(ap, loc)
        self.base = base
        self.index = index
        self.src = src

    @property
    def sources(self) -> Sequence[Temp]:
        return (self.base, self.index, self.src)


class LoadDopeData(_MemInstr):
    """dest := dope(base).data — implicit open-array access (invisible to RLE)."""

    is_heap_load = True
    is_dope = True

    def __init__(self, dest: Temp, base: Temp, ap: AccessPath, loc=UNKNOWN_LOCATION):
        super().__init__(ap, loc)
        self._dest = dest
        self.base = base

    @property
    def dest(self) -> Temp:
        return self._dest

    @property
    def sources(self) -> Sequence[Temp]:
        return (self.base,)


class LoadDopeCount(_MemInstr):
    """dest := dope(base).count — implicit open-array bound (invisible to RLE)."""

    is_heap_load = True
    is_dope = True

    def __init__(self, dest: Temp, base: Temp, ap: AccessPath, loc=UNKNOWN_LOCATION):
        super().__init__(ap, loc)
        self._dest = dest
        self.base = base

    @property
    def dest(self) -> Temp:
        return self._dest

    @property
    def sources(self) -> Sequence[Temp]:
        return (self.base,)


class LoadInd(_MemInstr):
    """dest := *handle — read through a VAR-param/WITH location handle.

    Counts as a heap load when the handle points into the heap, as an
    "other" load when it points at a variable slot; the interpreter
    decides dynamically and the metrics record both tallies.
    """

    is_heap_load = True  # conservative static classification

    def __init__(self, dest: Temp, handle: Temp, ap: AccessPath, loc=UNKNOWN_LOCATION):
        super().__init__(ap, loc)
        self._dest = dest
        self.handle = handle

    @property
    def dest(self) -> Temp:
        return self._dest

    @property
    def sources(self) -> Sequence[Temp]:
        return (self.handle,)


class StoreInd(_MemInstr):
    """*handle := src — write through a location handle."""

    is_heap_store = True

    def __init__(self, handle: Temp, src: Temp, ap: AccessPath, loc=UNKNOWN_LOCATION):
        super().__init__(ap, loc)
        self.handle = handle
        self.src = src

    @property
    def sources(self) -> Sequence[Temp]:
        return (self.handle, self.src)


# ----------------------------------------------------------------------
# Address-of (location handles for VAR arguments and WITH)


class AddrVar(Instr):
    """dest := &variable — handle to a variable slot."""

    def __init__(self, dest: Temp, symbol: Symbol, loc=UNKNOWN_LOCATION):
        super().__init__(loc)
        self._dest = dest
        self.symbol = symbol

    @property
    def dest(self) -> Temp:
        return self._dest


class AddrField(_MemInstr):
    """dest := &base.field — handle to a heap field."""

    def __init__(self, dest: Temp, base: Temp, field: str, ap: AccessPath, loc=UNKNOWN_LOCATION):
        super().__init__(ap, loc)
        self._dest = dest
        self.base = base
        self.field = field

    @property
    def dest(self) -> Temp:
        return self._dest

    @property
    def sources(self) -> Sequence[Temp]:
        return (self.base,)


class AddrElem(_MemInstr):
    """dest := &base[index] — handle to an array element."""

    def __init__(self, dest: Temp, base: Temp, index: Temp, ap: AccessPath, loc=UNKNOWN_LOCATION):
        super().__init__(ap, loc)
        self._dest = dest
        self.base = base
        self.index = index

    @property
    def dest(self) -> Temp:
        return self._dest

    @property
    def sources(self) -> Sequence[Temp]:
        return (self.base, self.index)


# ----------------------------------------------------------------------
# Allocation


class NewObject(Instr):
    """dest := NEW(object type)."""

    def __init__(self, dest: Temp, object_type: ObjectType, loc=UNKNOWN_LOCATION):
        super().__init__(loc)
        self._dest = dest
        self.object_type = object_type

    @property
    def dest(self) -> Temp:
        return self._dest


class NewRecord(Instr):
    """dest := NEW(REF RECORD ...)."""

    def __init__(self, dest: Temp, ref_type: RefType, loc=UNKNOWN_LOCATION):
        super().__init__(loc)
        self._dest = dest
        self.ref_type = ref_type

    @property
    def dest(self) -> Temp:
        return self._dest


class NewFixedArray(Instr):
    """dest := NEW(REF ARRAY [0..n] OF T)."""

    def __init__(self, dest: Temp, ref_type: RefType, loc=UNKNOWN_LOCATION):
        super().__init__(loc)
        self._dest = dest
        self.ref_type = ref_type

    @property
    def dest(self) -> Temp:
        return self._dest


class NewOpenArray(Instr):
    """dest := NEW(REF ARRAY OF T, size) — allocates dope + data."""

    def __init__(self, dest: Temp, ref_type: RefType, size: Temp, loc=UNKNOWN_LOCATION):
        super().__init__(loc)
        self._dest = dest
        self.ref_type = ref_type
        self.size = size

    @property
    def dest(self) -> Temp:
        return self._dest

    @property
    def sources(self) -> Sequence[Temp]:
        return (self.size,)


# ----------------------------------------------------------------------
# Calls and builtins


class Call(Instr):
    """dest := proc(args) — direct call."""

    is_call = True

    def __init__(
        self,
        dest: Optional[Temp],
        proc_name: str,
        args: List[Temp],
        loc=UNKNOWN_LOCATION,
    ):
        super().__init__(loc)
        self._dest = dest
        self.proc_name = proc_name
        self.args = args

    @property
    def dest(self) -> Optional[Temp]:
        return self._dest

    @property
    def sources(self) -> Sequence[Temp]:
        return tuple(self.args)


class CallMethod(Instr):
    """dest := receiver.method(args) — dynamic dispatch on the receiver.

    ``static_receiver_type`` is the declared type of the receiver
    expression; the call graph and the devirtualizer use it to bound the
    possible implementations (Subtypes of the static type).
    """

    is_call = True

    def __init__(
        self,
        dest: Optional[Temp],
        receiver: Temp,
        method_name: str,
        args: List[Temp],
        static_receiver_type: ObjectType,
        loc=UNKNOWN_LOCATION,
    ):
        super().__init__(loc)
        self._dest = dest
        self.receiver = receiver
        self.method_name = method_name
        self.args = args
        self.static_receiver_type = static_receiver_type

    @property
    def dest(self) -> Optional[Temp]:
        return self._dest

    @property
    def sources(self) -> Sequence[Temp]:
        return (self.receiver,) + tuple(self.args)


class Builtin(Instr):
    """dest := builtin(args) — pure or I/O builtin (ORD, PutText, ...).

    Builtins never touch program-visible heap memory; TEXT values are
    opaque (the paper excludes the standard library from measurement, so
    text machinery is modelled as zero-heap primitives).
    """

    is_call = False

    def __init__(self, dest: Optional[Temp], name: str, args: List[Temp], loc=UNKNOWN_LOCATION):
        super().__init__(loc)
        self._dest = dest
        self.name = name
        self.args = args

    @property
    def dest(self) -> Optional[Temp]:
        return self._dest

    @property
    def sources(self) -> Sequence[Temp]:
        return tuple(self.args)


class TypeTest(Instr):
    """dest := ISTYPE(src, T)."""

    def __init__(self, dest: Temp, src: Temp, target_type: ObjectType, loc=UNKNOWN_LOCATION):
        super().__init__(loc)
        self._dest = dest
        self.src = src
        self.target_type = target_type

    @property
    def dest(self) -> Temp:
        return self._dest

    @property
    def sources(self) -> Sequence[Temp]:
        return (self.src,)


class NarrowChk(Instr):
    """dest := NARROW(src, T) — runtime-checked downcast."""

    def __init__(self, dest: Temp, src: Temp, target_type: ObjectType, loc=UNKNOWN_LOCATION):
        super().__init__(loc)
        self._dest = dest
        self.src = src
        self.target_type = target_type

    @property
    def dest(self) -> Temp:
        return self._dest

    @property
    def sources(self) -> Sequence[Temp]:
        return (self.src,)


# ----------------------------------------------------------------------
# Control flow (terminators)


class Jump(Instr):
    is_terminator = True

    def __init__(self, target: "object", loc=UNKNOWN_LOCATION):
        super().__init__(loc)
        self.target = target  # BasicBlock

    @property
    def successors(self):
        return (self.target,)


class Branch(Instr):
    is_terminator = True

    def __init__(self, cond: Temp, if_true: "object", if_false: "object", loc=UNKNOWN_LOCATION):
        super().__init__(loc)
        self.cond = cond
        self.if_true = if_true
        self.if_false = if_false

    @property
    def sources(self) -> Sequence[Temp]:
        return (self.cond,)

    @property
    def successors(self):
        return (self.if_true, self.if_false)


class Return(Instr):
    is_terminator = True

    def __init__(self, value: Optional[Temp], loc=UNKNOWN_LOCATION):
        super().__init__(loc)
        self.value = value

    @property
    def sources(self) -> Sequence[Temp]:
        return (self.value,) if self.value is not None else ()

    @property
    def successors(self):
        return ()


HEAP_LOAD_CLASSES = (LoadField, LoadElem, LoadDopeData, LoadDopeCount, LoadInd)
HEAP_STORE_CLASSES = (StoreField, StoreElem, StoreInd)
