"""Runtime values and the simulated heap.

Scalars use native Python values (``int``, ``bool``, one-character ``str``
for CHAR, ``str`` for TEXT, ``None`` for NIL).  Heap entities carry a
simulated *address* so the limit study and the cache model see realistic
address streams:

* scalar slots are 8 bytes;
* CHAR array elements are 1 byte (so character buffers exercise cache
  lines like real text code does);
* an open array is a dope vector (data pointer + element count, two
  slots) pointing at a separate data array — indexing it costs an extra
  dope load, the paper's "Encapsulation" effect.
"""

from typing import Dict, List, Optional, Tuple

from repro.lang.symtab import Symbol
from repro.lang.types import (
    BOOLEAN, CHAR, INTEGER, TEXT, ObjectType, RecordType, RefType, Type,
)


class M3RuntimeError(Exception):
    """A checked runtime error (NIL deref, bad NARROW, bad subscript...)."""


SLOT_SIZE = 8


def element_size(element_type: Type) -> int:
    return 1 if element_type is CHAR else SLOT_SIZE


class HeapAllocator:
    """Bump allocator handing out simulated addresses."""

    def __init__(self, base: int = 0x10000):
        self._next = base
        self.allocated_bytes = 0
        self.allocations = 0

    def allocate(self, nbytes: int) -> int:
        nbytes = max(nbytes, SLOT_SIZE)
        # Keep allocations slot-aligned.
        nbytes = (nbytes + SLOT_SIZE - 1) // SLOT_SIZE * SLOT_SIZE
        addr = self._next
        self._next += nbytes
        self.allocated_bytes += nbytes
        self.allocations += 1
        return addr


class ObjectRef:
    """An allocated OBJECT instance: typed slots at field offsets."""

    __slots__ = ("otype", "slots", "addr", "offsets")

    def __init__(
        self,
        otype: ObjectType,
        addr: int,
        layout: Optional[Tuple[Dict[str, object], Dict[str, int]]] = None,
    ):
        self.otype = otype
        self.addr = addr
        defaults, self.offsets = layout or ObjectRef.layout(otype)
        self.slots: Dict[str, object] = dict(defaults)

    def field_addr(self, field: str) -> int:
        return self.addr + self.offsets[field]

    @staticmethod
    def layout(otype: ObjectType) -> Tuple[Dict[str, object], Dict[str, int]]:
        """Slot defaults and field offsets of *otype*.  An allocator can
        compute them once per type; instances share the offsets."""
        fields = otype.all_fields()
        defaults = {name: default_value(ftype) for name, ftype in fields}
        offsets = {name: i * SLOT_SIZE for i, (name, _) in enumerate(fields)}
        return defaults, offsets

    @staticmethod
    def size_of(otype: ObjectType) -> int:
        return max(1, len(otype.all_fields())) * SLOT_SIZE

    def __repr__(self) -> str:
        return "<{} @0x{:x}>".format(self.otype.name, self.addr)


class RecordRef:
    """A ``REF RECORD`` referent, or a scalar REF cell (one ``$value`` slot)."""

    __slots__ = ("rtype", "slots", "addr", "offsets")

    SCALAR_SLOT = "$value"

    def __init__(self, ref_type: RefType, addr: int):
        self.rtype = ref_type
        self.addr = addr
        target = ref_type.target
        if isinstance(target, RecordType):
            self.slots = {name: default_value(t) for name, t in target.fields}
            self.offsets = {
                name: i * SLOT_SIZE for i, (name, _) in enumerate(target.fields)
            }
        else:
            self.slots = {self.SCALAR_SLOT: default_value(target)}
            self.offsets = {self.SCALAR_SLOT: 0}

    def field_addr(self, field: str) -> int:
        return self.addr + self.offsets[field]

    @staticmethod
    def size_of(ref_type: RefType) -> int:
        target = ref_type.target
        if isinstance(target, RecordType):
            return max(1, len(target.fields)) * SLOT_SIZE
        return SLOT_SIZE

    def __repr__(self) -> str:
        return "<record @0x{:x}>".format(self.addr)


class ArrayRef:
    """A heap array (fixed-size referent, or the data part of an open array)."""

    __slots__ = ("element_type", "data", "addr", "_esize")

    def __init__(self, element_type: Type, length: int, addr: int):
        self.element_type = element_type
        self.data: List[object] = [default_value(element_type)] * length
        self.addr = addr
        self._esize = element_size(element_type)

    def elem_addr(self, index: int) -> int:
        return self.addr + index * self._esize

    def check_index(self, index: int) -> None:
        if not isinstance(index, int) or index < 0 or index >= len(self.data):
            raise M3RuntimeError(
                "subscript {} out of range [0..{}]".format(index, len(self.data) - 1)
            )

    @staticmethod
    def size_of(element_type: Type, length: int) -> int:
        return max(1, length) * element_size(element_type)

    def __repr__(self) -> str:
        return "<array[{}] @0x{:x}>".format(len(self.data), self.addr)


class DopeRef:
    """The dope vector of an open array: (data pointer, count)."""

    __slots__ = ("data", "count", "addr")

    DATA_OFFSET = 0
    COUNT_OFFSET = SLOT_SIZE
    SIZE = 2 * SLOT_SIZE

    def __init__(self, data: ArrayRef, addr: int):
        self.data = data
        self.count = len(data.data)
        self.addr = addr

    @property
    def data_addr(self) -> int:
        return self.addr + self.DATA_OFFSET

    @property
    def count_addr(self) -> int:
        return self.addr + self.COUNT_OFFSET

    def __repr__(self) -> str:
        return "<dope[{}] @0x{:x}>".format(self.count, self.addr)


# ----------------------------------------------------------------------
# Location handles (VAR parameters, WITH bindings, scalar REF cells)


class VarLoc:
    """Handle to a variable slot: ``cells[index]``, where *cells* is a
    frame (for locals) or the global area."""

    __slots__ = ("cells", "index", "symbol", "addr")

    def __init__(self, cells: List[object], index: int, symbol: Symbol, addr: int):
        self.cells = cells
        self.index = index
        self.symbol = symbol
        self.addr = addr

    def __repr__(self) -> str:
        return "<&var {}>".format(self.symbol.name)


class FieldLoc:
    """Handle to a heap field."""

    __slots__ = ("ref", "field")

    def __init__(self, ref: object, field: str):
        self.ref = ref  # ObjectRef or RecordRef
        self.field = field

    def __repr__(self) -> str:
        return "<&{!r}.{}>".format(self.ref, self.field)


class ElemLoc:
    """Handle to an array element."""

    __slots__ = ("array", "index")

    def __init__(self, array: ArrayRef, index: int):
        self.array = array
        self.index = index

    def __repr__(self) -> str:
        return "<&{!r}[{}]>".format(self.array, self.index)


def default_value(t: Type) -> object:
    """Modula-3-style defaults: 0 / FALSE / NUL / empty text / NIL."""
    if t is INTEGER:
        return 0
    if t is BOOLEAN:
        return False
    if t is CHAR:
        return "\0"
    if t is TEXT:
        return ""
    return None
