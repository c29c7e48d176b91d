"""Access paths (APs) — the unit TBAA and RLE reason about.

Table 1 of the paper defines three memory-reference constructors:

=========  ===========  =======================================
Notation   Name         Meaning
=========  ===========  =======================================
``p.f``    Qualify      access field ``f`` of object/record ``p``
``p^``     Dereference  dereference pointer ``p``
``p[i]``   Subscript    array ``p`` with subscript ``i``
=========  ===========  =======================================

An AP is a non-empty string of these over a variable root, e.g.
``a.b^[i].c``.  This module represents APs as immutable trees:

* :class:`VarRoot` — a program variable (not itself a memory reference);
* :class:`Qualify` / :class:`Deref` / :class:`Subscript` — the three
  reference constructors.

Two distinct equality notions coexist:

* **structural identity** (``==``) — same constructors over the same root
  symbols and, for subscripts, the same lexical index term.  RLE uses this
  to recognise "the same load again" (case 1 of Table 2 is ``p ≡ p``).
* **may-alias** — decided by the analyses in :mod:`repro.analysis`, which
  pattern-match on the constructor pairs exactly as Table 2 prescribes.

Subscript indices carry a lexical term (:class:`ConstIndex`,
:class:`VarIndex`, or :class:`UnknownIndex` for anything more complex)
because RLE must distinguish ``t[i]`` from ``t[j]`` (Figure 7 of the
paper), while the alias analyses deliberately ignore the subscript
(Table 2, case 6).

AP nodes are **hash-consed**: constructing the same path over the same
root symbols, fields, index terms and types returns the pointer-identical
node, and every node carries a dense integer :attr:`~AccessPath.uid`.
The alias analyses key their query caches on ``(uid, uid)`` pairs and
:func:`strip_index` memoises its result on the node, so repeated queries
never re-hash or re-canonicalise a tree.  A :class:`FreshRoot` or an
:class:`UnknownIndex` is one occurrence in the source, named by its
procedure and a number the procedure hands out
(:meth:`repro.ir.cfg.ProcIR.fresh_root`), so it is interned like any
other node and lowering a module twice builds the same paths.
"""

import itertools
import weakref
from typing import FrozenSet, List, Optional, Union

from repro.lang.symtab import Symbol
from repro.lang.types import ObjectType, Type

# ----------------------------------------------------------------------
# Index terms for Subscript


class IndexTerm:
    """Lexical description of a subscript expression."""

    __slots__ = ()

    def root_symbols(self) -> FrozenSet[Symbol]:
        return frozenset()


class ConstIndex(IndexTerm):
    """A compile-time constant subscript, e.g. ``a[0]``."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ConstIndex) and other.value == self.value

    def __hash__(self) -> int:
        return hash(("const-index", self.value))

    def __str__(self) -> str:
        return str(self.value)


class VarIndex(IndexTerm):
    """A plain-variable subscript, e.g. ``a[i]``."""

    __slots__ = ("symbol",)

    def __init__(self, symbol: Symbol):
        self.symbol = symbol

    def root_symbols(self) -> FrozenSet[Symbol]:
        return frozenset((self.symbol,))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, VarIndex) and other.symbol is self.symbol

    def __hash__(self) -> int:
        return hash(("var-index", self.symbol.uid))

    def __str__(self) -> str:
        return self.symbol.name


class UnknownIndex(IndexTerm):
    """A subscript too complex to name lexically; equal to no other.

    Each occurrence is numbered by its procedure (``proc``, ``serial``)
    so ``a[f(x)]`` is not considered the same location as the next
    ``a[f(x)]`` — conservative for RLE, irrelevant for aliasing (which
    ignores indices anyway).
    """

    __slots__ = ("proc", "serial")

    def __init__(self, proc: str, serial: int):
        self.proc = proc
        self.serial = serial

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, UnknownIndex) and other.serial == self.serial
                and other.proc == self.proc)

    def __hash__(self) -> int:
        return hash(("unknown-index", self.proc, self.serial))

    def __str__(self) -> str:
        return "?"


# ----------------------------------------------------------------------
# Access paths

#: Global intern table for hash-consed AP nodes.  Keys are flat tuples of
#: ints/strings (uids and object ids of components the node keeps alive);
#: values are weakly referenced so dropping a program frees its paths.
_intern_table: "weakref.WeakValueDictionary" = weakref.WeakValueDictionary()

_uid_counter = itertools.count()


class _InternMeta(type):
    """Hash-consing constructor: structurally-equal APs are identical.

    Each concrete AP class provides ``_intern_key(...)`` mirroring its
    ``__init__`` signature.
    """

    def __call__(cls, *args, **kwargs):
        key = cls._intern_key(*args, **kwargs)
        node = _intern_table.get(key)
        if node is None:
            node = super().__call__(*args, **kwargs)
            _intern_table[key] = node
        return node


class AccessPath(metaclass=_InternMeta):
    """Base class: an AP node with a static type (``Type(p)``)."""

    __slots__ = ("type", "uid", "_stripped", "__weakref__")

    def __init__(self, type: Type):
        self.type = type
        #: Dense integer identity; caches key on pairs of these.
        self.uid = next(_uid_counter)
        #: Memoised ``strip_index(self)`` (None until first computed).
        self._stripped: Optional["AccessPath"] = None

    # -- structure -----------------------------------------------------

    @property
    def base(self) -> Optional["AccessPath"]:
        """The AP this one is built on (None for roots)."""
        return None

    def root(self) -> "AccessPath":
        """The root at the bottom of the path (VarRoot or FreshRoot)."""
        node: AccessPath = self
        while node.base is not None:
            node = node.base
        return node

    def root_symbols(self) -> FrozenSet[Symbol]:
        """All symbols this path lexically depends on (root + indices).

        An assignment to any of these changes what the path denotes, so
        RLE kills availability of the AP when one is redefined.
        """
        symbols: List[Symbol] = []
        node: Optional[AccessPath] = self
        while node is not None:
            if isinstance(node, VarRoot):
                symbols.append(node.symbol)
            elif isinstance(node, Subscript):
                symbols.extend(node.index.root_symbols())
            node = node.base
        return frozenset(symbols)

    def depth(self) -> int:
        """Number of reference constructors in the path."""
        count, node = 0, self
        while node.base is not None:
            count += 1
            node = node.base
        return count

    def is_memory_reference(self) -> bool:
        """True for Qualify/Deref/Subscript; False for a bare variable."""
        return not isinstance(self, VarRoot)


class VarRoot(AccessPath):
    """The variable at the root of a path.

    ``is_handle`` marks roots that denote a *location handle* — a VAR
    parameter or a WITH binding to a designator.  Reads through a handle
    are represented as ``Deref(VarRoot(handle))``, exactly how the paper
    treats pass-by-reference formals (its revised AddressTaken in
    Section 4 talks about "pass-by-reference formals" aliasing qualified
    and subscripted expressions through dereferences).
    """

    __slots__ = ("symbol",)

    def __init__(self, symbol: Symbol):
        assert symbol.type is not None
        super().__init__(symbol.type)
        self.symbol = symbol

    @staticmethod
    def _intern_key(symbol: Symbol):
        return ("var", symbol.uid)

    @property
    def is_handle(self) -> bool:
        return self.symbol.by_reference or (
            self.symbol.kind == "with" and self.symbol.binds_location
        )

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        return isinstance(other, VarRoot) and other.symbol is self.symbol

    def __hash__(self) -> int:
        return hash(("var", self.symbol.uid))

    def __str__(self) -> str:
        return self.symbol.name


class FreshRoot(AccessPath):
    """An anonymous root for paths based on non-designator expressions.

    ``NEW(T).f`` or ``Make().f`` root their paths in the value of a
    compiler temporary; the paper's compiler would bind it to a fresh
    variable.  Each occurrence is numbered by its procedure (``proc``,
    ``serial``) and interned, so a fresh root is equal to itself alone,
    and alias queries treat it like a variable of its static type
    (Table 2 falls through to case 7, TypeDecl).
    """

    __slots__ = ("proc", "serial")

    def __init__(self, proc: str, serial: int, type: Type):
        super().__init__(type)
        self.proc = proc
        self.serial = serial

    @staticmethod
    def _intern_key(proc: str, serial: int, type: Type):
        return ("fresh", proc, serial, id(type))

    @property
    def is_handle(self) -> bool:
        return False

    def __str__(self) -> str:
        return "<tmp{}:{}>".format(self.serial, self.type.name)


class Qualify(AccessPath):
    """``p.f`` — field access.  ``owner`` is the type declaring ``f``."""

    __slots__ = ("_base", "field", "owner")

    def __init__(self, base: AccessPath, field: str, field_type: Type,
                 owner: Optional[ObjectType] = None):
        super().__init__(field_type)
        self._base = base
        self.field = field
        self.owner = owner

    @staticmethod
    def _intern_key(base: AccessPath, field: str, field_type: Type,
                    owner: Optional[ObjectType] = None):
        return ("qualify", base.uid, field, id(field_type), id(owner))

    @property
    def base(self) -> AccessPath:
        return self._base

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        return (
            isinstance(other, Qualify)
            and other.field == self.field
            and other._base == self._base
        )

    def __hash__(self) -> int:
        return hash(("qualify", self.field, self._base))

    def __str__(self) -> str:
        return "{}.{}".format(self._base, self.field)


class Deref(AccessPath):
    """``p^`` — pointer dereference."""

    __slots__ = ("_base",)

    def __init__(self, base: AccessPath, target_type: Type):
        super().__init__(target_type)
        self._base = base

    @staticmethod
    def _intern_key(base: AccessPath, target_type: Type):
        return ("deref", base.uid, id(target_type))

    @property
    def base(self) -> AccessPath:
        return self._base

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        return isinstance(other, Deref) and other._base == self._base

    def __hash__(self) -> int:
        return hash(("deref", self._base))

    def __str__(self) -> str:
        return "{}^".format(self._base)


class Subscript(AccessPath):
    """``p[i]`` — array subscript with a lexical index term."""

    __slots__ = ("_base", "index")

    def __init__(self, base: AccessPath, index: IndexTerm, element_type: Type):
        super().__init__(element_type)
        self._base = base
        self.index = index

    @staticmethod
    def _intern_key(base: AccessPath, index: IndexTerm, element_type: Type):
        if isinstance(index, ConstIndex):
            ikey = ("c", index.value)
        elif isinstance(index, VarIndex):
            ikey = ("v", index.symbol.uid)
        else:
            ikey = ("u", index.proc, index.serial)
        return ("subscript", base.uid, ikey, id(element_type))

    @property
    def base(self) -> AccessPath:
        return self._base

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        return (
            isinstance(other, Subscript)
            and other.index == self.index
            and other._base == self._base
        )

    def __hash__(self) -> int:
        return hash(("subscript", self.index, self._base))

    def __str__(self) -> str:
        return "{}[{}]".format(self._base, self.index)


APIndex = Union[ConstIndex, VarIndex, UnknownIndex]


#: The fixed marker every subscript index canonicalises to.
_STRIPPED_INDEX = ConstIndex(0)


def strip_index(ap: AccessPath) -> AccessPath:
    """Return *ap* with every subscript index replaced by a fixed marker.

    The alias analyses ignore subscripts (Table 2, case 6); canonicalising
    indices lets them use identity-based pair caching.  The result is
    memoised on the node, and a canonical node is its own fixpoint, so
    repeated canonicalisation of the same (interned) path is O(1).
    """
    cached = ap._stripped
    if cached is not None:
        return cached
    if isinstance(ap, (VarRoot, FreshRoot)):
        stripped = ap
    elif isinstance(ap, Qualify):
        stripped = Qualify(strip_index(ap.base), ap.field, ap.type, ap.owner)
    elif isinstance(ap, Deref):
        stripped = Deref(strip_index(ap.base), ap.type)
    elif isinstance(ap, Subscript):
        stripped = Subscript(strip_index(ap.base), _STRIPPED_INDEX, ap.type)
    else:
        raise TypeError("not an access path: {!r}".format(ap))
    stripped._stripped = stripped
    ap._stripped = stripped
    return stripped
