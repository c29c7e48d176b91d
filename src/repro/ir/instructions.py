"""IR instruction set.

Three-address code over virtual registers (:class:`Temp`).  Memory is
explicit: variable slots are read/written by ``LoadVar``/``StoreVar``,
heap cells by the Load*/Store* families, each of which carries the
:class:`~repro.ir.access_path.AccessPath` it realises.

Each class declares its operands once, as annotated fields in
constructor order, plus ``text``, its print template over those names.
A constructor is generated from the fields (:mod:`dataclasses`, with a
trailing ``loc``), and ``dest``, ``ap``, ``sources``, :meth:`Instr.clone`
and :func:`repro.ir.printer.format_instr` read the same fields.  An
operand annotated ``Temp``, ``Optional[Temp]`` or ``List[Temp]`` is a
register the instruction reads (``dest`` is the one it writes), one
annotated ``"BasicBlock"`` a successor; everything else is carried as is.

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

import dataclasses
from typing import Callable, ClassVar, Dict, List, Optional, Sequence, Tuple

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
        return f"t{self.index}"  # the printer's hottest call

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Temp) and other.index == self.index

    def __hash__(self) -> int:
        return hash(("temp", self.index))


#: How an operand field holds registers or blocks (see :class:`Instr`).
_PLAIN, _TEMP, _MAYBE_TEMP, _TEMPS, _BLOCK = range(5)
_KINDS = {Temp: _TEMP, Optional[Temp]: _MAYBE_TEMP, List[Temp]: _TEMPS,
          "BasicBlock": _BLOCK}


class Instr:
    """Base instruction.

    A subclass lists its operands as annotated fields and sets ``text``;
    :meth:`__init_subclass__` turns that declaration into a constructor
    ``Cls(*operands, loc=UNKNOWN_LOCATION)`` and the tables below.
    """

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
    #: The register written and the access path realised, where the
    #: class declares them.
    dest: Optional[Temp] = None
    ap: Optional[AccessPath] = None
    #: Print template over the operand names; see
    #: :func:`repro.ir.printer.format_instr`.
    text: ClassVar[str] = ""
    #: Derived per class: ``(name, kind)`` of every constructor operand
    #: in order and of the register operands other than ``dest``;
    #: ``(name, is a list)`` of the operands the printer renders (a
    #: register list, a register that may be absent); the fields
    #: outside the constructor.
    _operands: ClassVar[Tuple[Tuple[str, int], ...]] = ()
    _reads: ClassVar[Tuple[Tuple[str, int], ...]] = ()
    _shown: ClassVar[Tuple[Tuple[str, bool], ...]] = ()
    _extra: ClassVar[Tuple[str, ...]] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        own = cls.__annotations__  # the class's own, in declaration order
        for name in own:
            if name not in cls.__dict__:
                # Required: without this, ``Instr.dest = None`` would be
                # taken as the field's default.
                setattr(cls, name, dataclasses.field())
        own["loc"] = SourceLocation
        cls.loc = UNKNOWN_LOCATION
        dataclasses.dataclass(cls, eq=False, repr=False)
        fields = [f for f in dataclasses.fields(cls) if f.init and f.name != "loc"]
        cls._operands = tuple((f.name, _KINDS.get(f.type, _PLAIN)) for f in fields)
        cls._reads = tuple((name, kind) for name, kind in cls._operands
                           if kind in (_TEMP, _MAYBE_TEMP, _TEMPS) and name != "dest")
        cls._shown = tuple((name, kind == _TEMPS) for name, kind in cls._operands
                           if kind in (_MAYBE_TEMP, _TEMPS))
        cls._extra = tuple(f.name for f in dataclasses.fields(cls) if not f.init)

    @property
    def sources(self) -> Sequence[Temp]:
        """The registers this instruction reads, in operand order."""
        temps: List[Temp] = []
        for name, kind in self._reads:
            value = getattr(self, name)
            if kind == _TEMPS:
                temps.extend(value)
            elif value is not None:
                temps.append(value)
        return tuple(temps)

    def clone(self, remap: Callable[[object], object]) -> "Instr":
        """A fresh instruction of this class whose register and block
        operands are passed through *remap*.  Flags set after
        construction (``counted``, ``speculative``) take their class
        defaults; fields outside the constructor are copied."""
        args = []
        for name, kind in self._operands:
            value = getattr(self, name)
            if kind == _TEMPS:
                value = [remap(temp) for temp in value]
            elif kind != _PLAIN and value is not None:
                value = remap(value)
            args.append(value)
        clone = type(self)(*args, self.loc)
        for name in self._extra:
            setattr(clone, name, getattr(self, name))
        return clone

    def __repr__(self) -> str:
        return "<{} at {}>".format(type(self).__name__, self.loc)


# ----------------------------------------------------------------------
# Constants, moves, variables


class ConstInstr(Instr):
    """dest := literal (int, bool, char, text, or None for NIL)."""

    dest: Temp
    value: object
    text = "{dest} := const {value!r}"


class Move(Instr):
    """dest := src (register copy; free in the cost model)."""

    dest: Temp
    src: Temp
    text = "{dest} := {src}"


class LoadVar(Instr):
    """dest := variable slot.  A memory access only for globals."""

    dest: Temp
    symbol: Symbol
    text = "{dest} := var {symbol.name}"
    #: The heap load this move replaced, when RLE eliminated a faulting
    #: load: the move keeps that load's NIL and bounds check.
    checks: ClassVar[Optional[Instr]] = None


class StoreVar(Instr):
    """variable slot := src."""

    symbol: Symbol
    src: Temp
    text = "var {symbol.name} := {src}"


class BinOp(Instr):
    """dest := left <op> right."""

    dest: Temp
    op: str
    left: Temp
    right: Temp
    text = "{dest} := {left} {op} {right}"


class UnOp(Instr):
    """dest := <op> operand."""

    dest: Temp
    op: str
    operand: Temp
    text = "{dest} := {op} {operand}"


# ----------------------------------------------------------------------
# Heap accesses (all carry an AccessPath)


class LoadField(Instr):
    """dest := base.field — heap load (Qualify AP)."""

    is_heap_load = True
    dest: Temp
    base: Temp
    field: str
    ap: AccessPath
    text = "{dest} := load {base}.{field}  ; ap={ap}"


class StoreField(Instr):
    """base.field := src — heap store."""

    is_heap_store = True
    base: Temp
    field: str
    src: Temp
    ap: AccessPath
    text = "store {base}.{field} := {src}  ; ap={ap}"


class LoadElem(Instr):
    """dest := base[index] — heap load (Subscript AP)."""

    is_heap_load = True
    dest: Temp
    base: Temp
    index: Temp
    ap: AccessPath
    text = "{dest} := load {base}[{index}]  ; ap={ap}"


class StoreElem(Instr):
    """base[index] := src — heap store."""

    is_heap_store = True
    base: Temp
    index: Temp
    src: Temp
    ap: AccessPath
    text = "store {base}[{index}] := {src}  ; ap={ap}"


class LoadDopeData(Instr):
    """dest := dope(base).data — implicit open-array access (invisible to RLE)."""

    is_heap_load = True
    is_dope = True
    dest: Temp
    base: Temp
    ap: AccessPath
    text = "{dest} := dope-data {base}  ; ap={ap}"


class LoadDopeCount(Instr):
    """dest := dope(base).count — implicit open-array bound (invisible to RLE)."""

    is_heap_load = True
    is_dope = True
    dest: Temp
    base: Temp
    ap: AccessPath
    text = "{dest} := dope-count {base}  ; ap={ap}"


class LoadInd(Instr):
    """dest := *handle — read through a VAR-param/WITH location handle.

    Counts as a heap load when the handle points into the heap, as an
    "other" load when it points at a variable slot; the interpreter
    decides dynamically and the metrics record both tallies.
    """

    is_heap_load = True  # conservative static classification
    dest: Temp
    handle: Temp
    ap: AccessPath
    text = "{dest} := load *{handle}  ; ap={ap}"


class StoreInd(Instr):
    """*handle := src — write through a location handle."""

    is_heap_store = True
    handle: Temp
    src: Temp
    ap: AccessPath
    text = "store *{handle} := {src}  ; ap={ap}"


# ----------------------------------------------------------------------
# Address-of (location handles for VAR arguments and WITH)


class AddrVar(Instr):
    """dest := &variable — handle to a variable slot."""

    dest: Temp
    symbol: Symbol
    text = "{dest} := addr var {symbol.name}"


class AddrField(Instr):
    """dest := &base.field — handle to a heap field."""

    dest: Temp
    base: Temp
    field: str
    ap: AccessPath
    text = "{dest} := addr {base}.{field}  ; ap={ap}"


class AddrElem(Instr):
    """dest := &base[index] — handle to an array element."""

    dest: Temp
    base: Temp
    index: Temp
    ap: AccessPath
    text = "{dest} := addr {base}[{index}]  ; ap={ap}"


# ----------------------------------------------------------------------
# Allocation


class NewObject(Instr):
    """dest := NEW(object type)."""

    dest: Temp
    object_type: ObjectType
    text = "{dest} := new object {object_type.name}"


class NewRecord(Instr):
    """dest := NEW(REF RECORD ...)."""

    dest: Temp
    ref_type: RefType
    text = "{dest} := new {ref_type.name}"


class NewFixedArray(Instr):
    """dest := NEW(REF ARRAY [0..n] OF T)."""

    dest: Temp
    ref_type: RefType
    text = "{dest} := new {ref_type.name}"


class NewOpenArray(Instr):
    """dest := NEW(REF ARRAY OF T, size) — allocates dope + data."""

    dest: Temp
    ref_type: RefType
    size: Temp
    text = "{dest} := new {ref_type.name} size={size}"


# ----------------------------------------------------------------------
# Calls and builtins


class Call(Instr):
    """dest := proc(args) — direct call.

    ``var_args`` maps the position of each VAR argument to the location
    it lends (``('var', symbol)``, ``('handle', symbol)`` or ``('heap',
    ap)``); the lowering fills it in and mod-ref reads it.
    """

    is_call = True
    dest: Optional[Temp]
    proc_name: str
    args: List[Temp]
    var_args: Dict[int, tuple] = dataclasses.field(init=False, default_factory=dict)
    text = "{dest}call {proc_name}({args})"


class CallMethod(Instr):
    """dest := receiver.method(args) — dynamic dispatch on the receiver.

    ``static_receiver_type`` is the declared type of the receiver
    expression; the call graph and the devirtualizer use it to bound the
    possible implementations (Subtypes of the static type).  ``var_args``
    is as for :class:`Call`, positions counting explicit arguments only.
    """

    is_call = True
    dest: Optional[Temp]
    receiver: Temp
    method_name: str
    args: List[Temp]
    static_receiver_type: ObjectType
    var_args: Dict[int, tuple] = dataclasses.field(init=False, default_factory=dict)
    text = "{dest}callm {receiver}.{method_name}({args})"


class Builtin(Instr):
    """dest := builtin(args) — pure or I/O builtin (ORD, PutText, ...).

    Builtins never touch program-visible heap memory; TEXT values are
    opaque (the paper excludes the standard library from measurement, so
    text machinery is modelled as zero-heap primitives).
    """

    dest: Optional[Temp]
    name: str
    args: List[Temp]
    text = "{dest}builtin {name}({args})"


class TypeTest(Instr):
    """dest := ISTYPE(src, T)."""

    dest: Temp
    src: Temp
    target_type: ObjectType
    text = "{dest} := istype {src} {target_type.name}"


class NarrowChk(Instr):
    """dest := NARROW(src, T) — runtime-checked downcast."""

    dest: Temp
    src: Temp
    target_type: ObjectType
    text = "{dest} := narrow {src} {target_type.name}"


# ----------------------------------------------------------------------
# Control flow (terminators)


class Jump(Instr):
    is_terminator = True
    target: "BasicBlock"
    text = "jump {target.name}"

    @property
    def successors(self):
        return (self.target,)


class Branch(Instr):
    is_terminator = True
    cond: Temp
    if_true: "BasicBlock"
    if_false: "BasicBlock"
    text = "branch {cond} ? {if_true.name} : {if_false.name}"

    @property
    def successors(self):
        return (self.if_true, self.if_false)


class Return(Instr):
    is_terminator = True
    value: Optional[Temp]
    text = "return {value}"
    successors = ()


HEAP_LOAD_CLASSES = (LoadField, LoadElem, LoadDopeData, LoadDopeCount, LoadInd)
HEAP_STORE_CLASSES = (StoreField, StoreElem, StoreInd)
