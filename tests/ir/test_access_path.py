"""Tests for the access-path algebra."""

from hypothesis import given, strategies as st

from repro.ir.access_path import (
    ConstIndex,
    Deref,
    FreshRoot,
    Qualify,
    Subscript,
    UnknownIndex,
    VarIndex,
    VarRoot,
    strip_index,
)
from repro.lang import types as ty
from repro.lang.errors import UNKNOWN_LOCATION
from repro.lang.symtab import Symbol


def sym(name, t=ty.INTEGER, kind="var", mode="value"):
    return Symbol(name, kind, t, UNKNOWN_LOCATION, mode=mode)


def obj_type(name="T"):
    return ty.ObjectType(name, ty.ROOT, [])


class TestStructure:
    def test_var_root(self):
        s = sym("x", obj_type())
        root = VarRoot(s)
        assert root.base is None
        assert root.root() is root
        assert not root.is_memory_reference()
        assert str(root) == "x"

    def test_qualify(self):
        t = obj_type()
        p = Qualify(VarRoot(sym("a", t)), "f", ty.INTEGER, t)
        assert p.is_memory_reference()
        assert p.depth() == 1
        assert str(p) == "a.f"

    def test_nested_path_string(self):
        t = obj_type()
        ref = ty.RefType(ty.INTEGER)
        a = VarRoot(sym("a", t))
        b = Qualify(a, "b", ref, t)
        d = Deref(b, ty.INTEGER)
        assert str(d) == "a.b^"
        assert d.depth() == 2
        assert d.root().symbol.name == "a"

    def test_subscript_string(self):
        arr = ty.ArrayType(ty.CHAR, None)
        ref = ty.RefType(arr)
        p = VarRoot(sym("p", ref))
        deref = Deref(p, arr)
        s = Subscript(deref, VarIndex(sym("i")), ty.CHAR)
        assert str(s) == "p^[i]"


class TestEquality:
    def test_same_path_equal(self):
        t = obj_type()
        a = sym("a", t)
        p1 = Qualify(VarRoot(a), "f", ty.INTEGER, t)
        p2 = Qualify(VarRoot(a), "f", ty.INTEGER, t)
        assert p1 == p2
        assert hash(p1) == hash(p2)

    def test_different_roots_differ(self):
        t = obj_type()
        p1 = Qualify(VarRoot(sym("a", t)), "f", ty.INTEGER, t)
        p2 = Qualify(VarRoot(sym("b", t)), "f", ty.INTEGER, t)
        assert p1 != p2

    def test_different_fields_differ(self):
        t = obj_type()
        a = sym("a", t)
        assert Qualify(VarRoot(a), "f", ty.INTEGER, t) != Qualify(
            VarRoot(a), "g", ty.INTEGER, t
        )

    def test_indices_matter_for_equality(self):
        arr = ty.ArrayType(ty.INTEGER, None)
        base = Deref(VarRoot(sym("p", ty.RefType(arr))), arr)
        i = sym("i")
        j = sym("j")
        assert Subscript(base, VarIndex(i), ty.INTEGER) == Subscript(
            base, VarIndex(i), ty.INTEGER
        )
        assert Subscript(base, VarIndex(i), ty.INTEGER) != Subscript(
            base, VarIndex(j), ty.INTEGER
        )
        assert Subscript(base, ConstIndex(0), ty.INTEGER) != Subscript(
            base, ConstIndex(1), ty.INTEGER
        )

    def test_unknown_index_never_equal(self):
        # Only the same occurrence, (procedure, number), is equal.
        arr = ty.ArrayType(ty.INTEGER, None)
        base = Deref(VarRoot(sym("p", ty.RefType(arr))), arr)
        s1 = Subscript(base, UnknownIndex("P", 0), ty.INTEGER)
        assert s1 != Subscript(base, UnknownIndex("P", 1), ty.INTEGER)
        assert s1 != Subscript(base, UnknownIndex("Q", 0), ty.INTEGER)
        assert s1 == Subscript(base, UnknownIndex("P", 0), ty.INTEGER)

    def test_fresh_roots_unique(self):
        t = obj_type()
        f = FreshRoot("P", 0, t)
        assert f != FreshRoot("P", 1, t)
        assert f != FreshRoot("Q", 0, t)
        assert f == FreshRoot("P", 0, t)
        assert not f.is_handle


class TestRootSymbols:
    def test_includes_root_and_index_vars(self):
        t = obj_type()
        arr = ty.ArrayType(ty.INTEGER, None)
        a = sym("a", t)
        i = sym("i")
        ref = ty.RefType(arr)
        path = Subscript(
            Deref(Qualify(VarRoot(a), "buf", ref, t), arr), VarIndex(i), ty.INTEGER
        )
        assert path.root_symbols() == {a, i}

    def test_const_index_contributes_nothing(self):
        arr = ty.ArrayType(ty.INTEGER, None)
        p = sym("p", ty.RefType(arr))
        path = Subscript(Deref(VarRoot(p), arr), ConstIndex(3), ty.INTEGER)
        assert path.root_symbols() == {p}


class TestHandles:
    def test_var_param_is_handle(self):
        s = sym("x", ty.INTEGER, kind="param", mode="var")
        assert VarRoot(s).is_handle

    def test_value_param_not_handle(self):
        s = sym("x", ty.INTEGER, kind="param", mode="value")
        assert not VarRoot(s).is_handle

    def test_with_location_binding_is_handle(self):
        s = sym("w", ty.INTEGER, kind="with")
        s.binds_location = True
        assert VarRoot(s).is_handle
        s2 = sym("w2", ty.INTEGER, kind="with")
        assert not VarRoot(s2).is_handle


class TestStripIndex:
    def test_canonicalises_subscripts(self):
        arr = ty.ArrayType(ty.INTEGER, None)
        base = Deref(VarRoot(sym("p", ty.RefType(arr))), arr)
        s1 = Subscript(base, VarIndex(sym("i")), ty.INTEGER)
        s2 = Subscript(base, ConstIndex(7), ty.INTEGER)
        assert strip_index(s1) == strip_index(s2)

    def test_idempotent(self):
        arr = ty.ArrayType(ty.INTEGER, None)
        base = Deref(VarRoot(sym("p", ty.RefType(arr))), arr)
        s = Subscript(base, UnknownIndex("P", 0), ty.INTEGER)
        once = strip_index(s)
        assert strip_index(once) == once

    def test_preserves_non_subscripts(self):
        t = obj_type()
        p = Qualify(VarRoot(sym("a", t)), "f", ty.INTEGER, t)
        assert strip_index(p) == p


class TestInterning:
    """Hash-consing: equal construction returns the identical node."""

    def test_var_root_interned(self):
        s = sym("x", obj_type())
        assert VarRoot(s) is VarRoot(s)

    def test_qualify_interned(self):
        t = obj_type()
        s = sym("a", t)
        assert Qualify(VarRoot(s), "f", ty.INTEGER, t) is Qualify(
            VarRoot(s), "f", ty.INTEGER, t
        )

    def test_deref_and_subscript_interned(self):
        arr = ty.ArrayType(ty.INTEGER, None)
        s = sym("p", ty.RefType(arr))
        d1 = Deref(VarRoot(s), arr)
        d2 = Deref(VarRoot(s), arr)
        assert d1 is d2
        assert Subscript(d1, ConstIndex(3), ty.INTEGER) is Subscript(
            d2, ConstIndex(3), ty.INTEGER
        )
        i = sym("i")
        assert Subscript(d1, VarIndex(i), ty.INTEGER) is Subscript(
            d2, VarIndex(i), ty.INTEGER
        )

    def test_distinct_structures_not_shared(self):
        t = obj_type()
        s = sym("a", t)
        assert Qualify(VarRoot(s), "f", ty.INTEGER, t) is not Qualify(
            VarRoot(s), "g", ty.INTEGER, t
        )

    def test_fresh_nodes_interned_by_procedure_and_number(self):
        t = obj_type()
        assert FreshRoot("P", 0, t) is FreshRoot("P", 0, t)
        assert FreshRoot("P", 0, t) is not FreshRoot("P", 1, t)
        assert FreshRoot("P", 0, t) is not FreshRoot("Q", 0, t)
        arr = ty.ArrayType(ty.INTEGER, None)
        d = Deref(VarRoot(sym("p", ty.RefType(arr))), arr)
        same = Subscript(d, UnknownIndex("P", 0), ty.INTEGER)
        assert same is Subscript(d, UnknownIndex("P", 0), ty.INTEGER)
        assert same is not Subscript(d, UnknownIndex("P", 1), ty.INTEGER)
        assert same is not Subscript(d, UnknownIndex("Q", 0), ty.INTEGER)

    def test_uid_stable_across_reconstruction(self):
        s = sym("x", obj_type())
        assert VarRoot(s).uid == VarRoot(s).uid

    def test_uids_distinct_between_nodes(self):
        t = obj_type()
        s = sym("a", t)
        root = VarRoot(s)
        q = Qualify(root, "f", ty.INTEGER, t)
        assert root.uid != q.uid

    def test_strip_index_memoised_to_identical_node(self):
        arr = ty.ArrayType(ty.INTEGER, None)
        base = Deref(VarRoot(sym("p", ty.RefType(arr))), arr)
        s1 = Subscript(base, VarIndex(sym("i")), ty.INTEGER)
        s2 = Subscript(base, ConstIndex(7), ty.INTEGER)
        c1, c2 = strip_index(s1), strip_index(s2)
        assert c1 is c2
        assert strip_index(c1) is c1  # canonical nodes are fixpoints
        assert strip_index(s1) is c1  # memo returns the same node again


# -- property tests ----------------------------------------------------


@st.composite
def paths(draw, roots=None):
    """Random access paths over a tiny fixed set of roots/fields."""
    if roots is None:
        t = obj_type()
        roots = [VarRoot(sym(n, t)) for n in "ab"]
    node = draw(st.sampled_from(roots))
    arr = ty.ArrayType(ty.INTEGER, None)
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["q", "d", "s"]))
        if kind == "q":
            node = Qualify(node, draw(st.sampled_from("fg")), ty.RefType(arr), None)
        elif kind == "d":
            node = Deref(node, arr)
        else:
            node = Subscript(node, ConstIndex(draw(st.integers(0, 2))), ty.INTEGER)
    return node


@given(paths())
def test_hash_eq_consistency(p):
    assert p == p
    assert hash(p) == hash(p)
    assert strip_index(p) == strip_index(p)


@given(paths(), paths())
def test_equality_symmetric(p, q):
    assert (p == q) == (q == p)
    if p == q:
        assert hash(p) == hash(q)
