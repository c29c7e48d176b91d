"""The MiniM3 type system.

TBAA is driven entirely by the declared-type structure of the program, so
this module is the heart of the substrate.  It models:

* primitive types (``INTEGER``, ``BOOLEAN``, ``CHAR``, ``TEXT``) — TEXT is
  an immutable reference type whose payload is opaque to the program;
* ``REF T`` with optional brands, observing *structural* equivalence as in
  Modula-3 (two textually separate ``REF INTEGER`` declarations denote the
  same type; brands make otherwise-equal types distinct);
* ``RECORD`` and ``ARRAY`` types (open arrays have ``length is None`` and
  are accessed through a dope vector at run time);
* ``OBJECT`` types with single inheritance rooted at ``ROOT``.  Object
  declarations are *generative* (each declaration is a new type), which
  coincides with Modula-3's structural rules for the programs we accept and
  gives the subtype hierarchy that ``Subtypes(T)`` (Section 2.1) consumes.

Reference-like types (objects, REFs, TEXT, NIL) are what the paper calls
"pointer types"; :func:`is_pointer_type` is the predicate Step 1 of
SMTypeRefs (Figure 2) iterates over.
"""

from typing import Dict, List, Optional, Sequence, Tuple


class Type:
    """Base class of all MiniM3 types.

    Types are compared by identity; the :class:`TypeTable` interns
    structural types so identity coincides with structural equivalence.
    """

    name: str = "<type>"

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return "<{} {}>".format(type(self).__name__, self.name)


class PrimitiveType(Type):
    """INTEGER, BOOLEAN, CHAR — value types, never aliased."""

    def __init__(self, name: str):
        self.name = name


class NilType(Type):
    """The type of the literal ``NIL``; subtype of every reference type."""

    name = "NULL"


class TextType(Type):
    """``TEXT``: immutable character strings (a reference type)."""

    name = "TEXT"


class RefType(Type):
    """``REF T`` (traced reference to *T*), optionally ``BRANDED``.

    Brands matter in Section 4 of the paper: unavailable code cannot
    reconstruct a branded type, so open-world TBAA may keep branded types
    out of the conservative merge.
    """

    def __init__(self, target: Type, brand: Optional[str] = None):
        self.target = target
        self.brand = brand
        prefix = 'BRANDED "{}" '.format(brand) if brand else ""
        self.name = "{}REF {}".format(prefix, target.name)


class RecordType(Type):
    """``RECORD f: T; ... END`` — a value type with named fields."""

    def __init__(self, fields: Sequence[Tuple[str, Type]]):
        self.fields: List[Tuple[str, Type]] = list(fields)
        self._index = {fname: (i, ftype) for i, (fname, ftype) in enumerate(self.fields)}
        self.name = "RECORD {} END".format(
            "; ".join("{}: {}".format(f, t.name) for f, t in self.fields)
        )

    def field_type(self, fname: str) -> Optional[Type]:
        entry = self._index.get(fname)
        return entry[1] if entry else None

    def field_index(self, fname: str) -> Optional[int]:
        entry = self._index.get(fname)
        return entry[0] if entry else None


class ArrayType(Type):
    """``ARRAY [0..n-1] OF T`` (fixed) or ``ARRAY OF T`` (open).

    Open arrays (``length is None``) exist only behind a REF and are
    represented at run time by a dope vector (data pointer + element
    count); indexing one performs an *implicit* heap load of the dope
    vector — the paper's "Encapsulation" category in Figure 10.
    """

    def __init__(self, element: Type, length: Optional[int] = None):
        self.element = element
        self.length = length
        if length is None:
            self.name = "ARRAY OF {}".format(element.name)
        else:
            self.name = "ARRAY [0..{}] OF {}".format(length - 1, element.name)

    @property
    def is_open(self) -> bool:
        return self.length is None


class Method:
    """A method slot of an object type: name, signature, default impl."""

    def __init__(
        self,
        name: str,
        params: Sequence["Param"],
        result: Optional[Type],
        default_impl: Optional[str],
    ):
        self.name = name
        self.params = list(params)
        self.result = result
        self.default_impl = default_impl  # procedure name or None

    def __repr__(self) -> str:
        return "<Method {}>".format(self.name)


class ObjectType(Type):
    """An ``OBJECT`` type: supertype, own fields, own/overridden methods."""

    def __init__(
        self,
        name: str,
        supertype: Optional["ObjectType"],
        fields: Sequence[Tuple[str, Type]],
        methods: Sequence[Method] = (),
        overrides: Sequence[Tuple[str, str]] = (),
        brand: Optional[str] = None,
    ):
        self.name = name
        self.supertype = supertype
        self.own_fields: List[Tuple[str, Type]] = list(fields)
        self.own_methods: List[Method] = list(methods)
        self.overrides: List[Tuple[str, str]] = list(overrides)
        self.brand = brand

    # -- fields ---------------------------------------------------------

    def all_fields(self) -> List[Tuple[str, Type]]:
        """Fields in layout order: inherited first, then own."""
        inherited = self.supertype.all_fields() if self.supertype else []
        return inherited + self.own_fields

    def field_type(self, fname: str) -> Optional[Type]:
        for name, ftype in self.own_fields:
            if name == fname:
                return ftype
        if self.supertype:
            return self.supertype.field_type(fname)
        return None

    def field_index(self, fname: str) -> Optional[int]:
        for i, (name, _) in enumerate(self.all_fields()):
            if name == fname:
                return i
        return None

    def field_owner(self, fname: str) -> Optional["ObjectType"]:
        """The most-derived ancestor (or self) declaring field *fname*."""
        for name, _ in self.own_fields:
            if name == fname:
                return self
        if self.supertype:
            return self.supertype.field_owner(fname)
        return None

    # -- methods --------------------------------------------------------

    def method_slots(self) -> List[Method]:
        """Method slots in dispatch order: inherited first, then own."""
        inherited = self.supertype.method_slots() if self.supertype else []
        return inherited + self.own_methods

    def find_method(self, mname: str) -> Optional[Method]:
        for method in self.own_methods:
            if method.name == mname:
                return method
        if self.supertype:
            return self.supertype.find_method(mname)
        return None

    def method_impl(self, mname: str) -> Optional[str]:
        """Resolve the implementing procedure for *mname* at this type."""
        for name, proc in self.overrides:
            if name == mname:
                return proc
        for method in self.own_methods:
            if method.name == mname:
                return method.default_impl
        if self.supertype:
            return self.supertype.method_impl(mname)
        return None

    # -- subtyping ------------------------------------------------------

    def ancestors(self) -> List["ObjectType"]:
        """self, super, super-super, ... up to ROOT."""
        chain: List[ObjectType] = []
        node: Optional[ObjectType] = self
        while node is not None:
            chain.append(node)
            node = node.supertype
        return chain


class Param:
    """A formal parameter: mode is 'value', 'var' or 'readonly'.

    ``var`` parameters are pass-by-reference — one of the two
    address-taking constructs TBAA's ``AddressTaken`` predicate tracks.
    """

    def __init__(self, name: str, mode: str, type: Type):
        assert mode in ("value", "var", "readonly")
        self.name = name
        self.mode = mode
        self.type = type

    @property
    def by_reference(self) -> bool:
        return self.mode == "var"

    def __repr__(self) -> str:
        prefix = {"value": "", "var": "VAR ", "readonly": "READONLY "}[self.mode]
        return "{}{}: {}".format(prefix, self.name, self.type.name)


class ProcType(Type):
    """The type of a procedure (used for signatures, not first-class)."""

    def __init__(self, params: Sequence[Param], result: Optional[Type]):
        self.params = list(params)
        self.result = result
        sig = "; ".join(repr(p) for p in self.params)
        res = ": {}".format(result.name) if result else ""
        self.name = "PROCEDURE ({}){}".format(sig, res)


# ----------------------------------------------------------------------
# Singletons for primitives

INTEGER = PrimitiveType("INTEGER")
BOOLEAN = PrimitiveType("BOOLEAN")
CHAR = PrimitiveType("CHAR")
TEXT = TextType()
NIL = NilType()
ROOT = ObjectType("ROOT", None, [])


def is_pointer_type(t: Type) -> bool:
    """True for types whose values are references into the heap.

    These are the "pointer types" Step 1 of SMTypeRefs ranges over.
    """
    return isinstance(t, (RefType, ObjectType, TextType, NilType))


def is_reference_compatible(src: Type, dst: Type) -> bool:
    """Modula-3 assignability between reference types.

    ``src`` is assignable to ``dst`` iff they are the same type, ``src``
    is NIL, or they are object types related by subtyping in *either*
    direction (downward assignments carry an implicit runtime check,
    which the interpreter performs — type safety is preserved, which is
    the property TBAA's soundness rests on).
    """
    if src is dst:
        return True
    if isinstance(src, NilType) and is_pointer_type(dst):
        return True
    if isinstance(src, ObjectType) and isinstance(dst, ObjectType):
        return is_subtype(src, dst) or is_subtype(dst, src)
    return False


def is_subtype(sub: Type, sup: Type) -> bool:
    """``sub <: sup`` — reflexive; NIL below all references; objects by
    their inheritance chain (every object type is below ROOT)."""
    if sub is sup:
        return True
    if isinstance(sub, NilType) and is_pointer_type(sup):
        return True
    if isinstance(sub, ObjectType) and isinstance(sup, ObjectType):
        return sup in sub.ancestors()
    return False


class TypeTable:
    """Interning table establishing structural equivalence.

    REF, ARRAY and RECORD types are structural in Modula-3: the table
    canonicalises them by a structural key so that identity comparison is
    sound.  Object types are generative and never interned.
    """

    def __init__(self) -> None:
        self._interned: Dict[tuple, Type] = {}
        # All named/generated types in declaration order; the analyses
        # iterate this to enumerate the program's pointer types.
        self.all_types: List[Type] = [INTEGER, BOOLEAN, CHAR, TEXT, ROOT]

    def _intern(self, key: tuple, make: "type(lambda: None)") -> Type:
        existing = self._interned.get(key)
        if existing is not None:
            return existing
        fresh = make()
        self._interned[key] = fresh
        self.all_types.append(fresh)
        return fresh

    def ref(self, target: Type, brand: Optional[str] = None) -> RefType:
        key = ("ref", id(target), brand)
        return self._intern(key, lambda: RefType(target, brand))  # type: ignore[return-value]

    def array(self, element: Type, length: Optional[int] = None) -> ArrayType:
        key = ("array", id(element), length)
        return self._intern(key, lambda: ArrayType(element, length))  # type: ignore[return-value]

    def record(self, fields: Sequence[Tuple[str, Type]]) -> RecordType:
        key = ("record",) + tuple((f, id(t)) for f, t in fields)
        return self._intern(key, lambda: RecordType(fields))  # type: ignore[return-value]

    def register_object(self, obj: ObjectType) -> ObjectType:
        self.all_types.append(obj)
        return obj

    def pointer_types(self) -> List[Type]:
        """All reference-like types declared in the program."""
        return [t for t in self.all_types if is_pointer_type(t)]

    def object_types(self) -> List[ObjectType]:
        return [t for t in self.all_types if isinstance(t, ObjectType)]


def subtypes_of(t: Type, table: TypeTable) -> List[Type]:
    """``Subtypes(T)`` from Section 2.1: the set of subtypes of T, incl. T.

    For object types this is the set of declared object types at or below
    T in the hierarchy; for other reference types it is {T} (plus nothing
    else — NIL has no declared variables in practice but is handled by the
    analyses' NIL special-casing).
    """
    if isinstance(t, ObjectType):
        return [o for o in table.object_types() if is_subtype(o, t)]
    return [t]
