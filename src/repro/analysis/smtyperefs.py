"""SMTypeRefs — selective type merging (Section 2.4, Figure 2).

TypeDecl assumes programs use types "in their full generality": an AP of
type T may reference any Subtypes(T).  SMTypeRefs only lets T reference a
subtype S when some *implicit or explicit pointer assignment* between the
two types exists.  The algorithm, verbatim from Figure 2:

    Step 1: put each pointer type in its own set.
    Step 2: for every pointer assignment a := b with Type(a) ≠ Type(b),
            merge the sets containing the two types.
    Step 3: TypeRefsTable(t) = group(t) ∩ Subtypes(t).

Step 3 prunes by the subtype relation, which creates the *asymmetry* the
paper highlights (Table 3): after ``t := s1; t := s2`` an AP of type T
may reference T, S1 or S2, but an AP of type S1 may only reference S1.
Footnote 4 notes that plain Steensgaard merging over user types would not
discover this asymmetry.

Implicit assignments collected (Section 2.4 says "explicit and implicit"):
direct ``:=``, variable initialisers, value-parameter binding, method
receiver and argument binding (over every implementation the static
receiver type allows), RETURN values, NEW field initialisers, and NARROW
coercions.

The **open-world** mode (Section 4) additionally merges every pair of
subtype-related types that unavailable code could reconstruct — i.e.
every pair where *neither* type is BRANDED — because unseen code may
perform such assignments.
"""

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis.address_taken import AddressTakenInfo
from repro.analysis.alias_base import TypeOracle
from repro.analysis.fieldtypedecl import FieldTypeDeclAnalysis
from repro.analysis.typehierarchy import SubtypeOracle
from repro.ir.access_path import AccessPath
from repro.lang import ast_nodes as ast
from repro.lang.astwalk import all_exprs, walk_stmts
from repro.lang.errors import SourceLocation
from repro.lang.symtab import Symbol
from repro.lang.typecheck import CheckedModule, CheckedProc
from repro.lang.types import (
    NilType,
    ObjectType,
    ProcType,
    Type,
    is_pointer_type,
    is_subtype,
)
from repro.obs import metrics
from repro.util.bits import popcount
from repro.util.unionfind import UnionFind


@dataclass
class PointerAssignment:
    """One (implicit or explicit) pointer assignment ``dst := src``."""

    dst_type: Type
    src_type: Type
    kind: str  # 'assign' | 'init' | 'param' | 'receiver' | 'return' | 'new-field' | 'narrow'
    loc: SourceLocation

    def is_merge(self) -> bool:
        """Step 2 merges only when the two declared types differ."""
        return (
            self.dst_type is not self.src_type
            and not isinstance(self.src_type, NilType)
            and not isinstance(self.dst_type, NilType)
            and is_pointer_type(self.dst_type)
            and is_pointer_type(self.src_type)
        )


def collect_pointer_assignments(checked: CheckedModule) -> List[PointerAssignment]:
    """Every pointer assignment in the program, explicit and implicit."""
    out: List[PointerAssignment] = []

    def add(dst: Optional[Type], src: Optional[Type], kind: str, loc: SourceLocation) -> None:
        if dst is None or src is None:
            return
        if is_pointer_type(dst) and is_pointer_type(src):
            out.append(PointerAssignment(dst, src, kind, loc))

    # Global initialisers.
    for decl in checked.module.var_decls:
        if decl.init is not None:
            var_type = checked.globals and next(
                (g.type for g in checked.globals if g.name == decl.names[0]), None
            )
            add(var_type, decl.init.type, "init", decl.loc)

    for proc in checked.user_procs():
        _collect_proc(checked, proc, add)
    return out


def _collect_proc(checked: CheckedModule, proc: CheckedProc, add) -> None:
    # Local initialisers.
    if proc.decl is not None:
        by_name = {s.name: s for s in proc.locals}
        for vdecl in proc.decl.local_vars:
            if vdecl.init is not None:
                for name in vdecl.names:
                    add(by_name[name].type, vdecl.init.type, "init", vdecl.loc)

    for stmt in walk_stmts(proc.body):
        if isinstance(stmt, ast.AssignStmt):
            add(stmt.target.type, stmt.value.type, "assign", stmt.loc)
        elif isinstance(stmt, ast.ReturnStmt) and stmt.value is not None:
            add(proc.result, stmt.value.type, "return", stmt.loc)

    for _, expr in all_exprs(proc.body):
        if isinstance(expr, ast.CallExpr) and expr.call_kind == "proc":
            proc_sym: Symbol = getattr(expr.callee, "symbol")
            proc_type = proc_sym.type
            assert isinstance(proc_type, ProcType)
            for arg, param in zip(expr.args, proc_type.params):
                if param.mode != "var":
                    add(param.type, arg.type, "param", expr.loc)
        elif isinstance(expr, ast.CallExpr) and expr.call_kind == "method":
            method = getattr(expr, "method")
            for arg, param in zip(expr.args, method.params):
                if param.mode != "var":
                    add(param.type, arg.type, "param", expr.loc)
            receiver = expr.callee.obj  # type: ignore[union-attr]
            static_type = getattr(expr, "receiver_type")
            for recv_type in _receiver_formal_types(checked, static_type, method.name):
                add(recv_type, receiver.type, "receiver", expr.loc)
        elif isinstance(expr, ast.NewExpr):
            new_type = getattr(expr, "allocated_type")
            if isinstance(new_type, ObjectType):
                for fname, init in expr.field_inits:
                    add(new_type.field_type(fname), init.type, "new-field", expr.loc)
        elif isinstance(expr, ast.NarrowExpr):
            add(expr.target_type, expr.operand.type, "narrow", expr.loc)


def _receiver_formal_types(
    checked: CheckedModule, static_type: ObjectType, method_name: str
) -> List[Type]:
    """Receiver formal types that gain a *new* reference at this call.

    Only formals at or above the static receiver type count: binding the
    receiver to an inherited implementation's supertype formal is an
    upcast (real type flow), whereas dispatching to a subtype override
    binds a value that was already a member of that subtype — no new
    flow, so recording it would only defeat the selective merging.
    """
    result: List[Type] = []
    seen: Set[str] = set()
    for obj in checked.object_types():
        if not is_subtype(obj, static_type):
            continue
        impl = obj.method_impl(method_name)
        if impl is None or impl in seen:
            continue
        seen.add(impl)
        proc = checked.procs.get(impl)
        if proc is not None and proc.params:
            recv_type = proc.params[0].type
            if recv_type is not None and is_subtype(static_type, recv_type):
                result.append(recv_type)
    return result


class SMTypeRefsOracle(TypeOracle):
    """Figure 2's TypeRefsTable, used as the leaf of SMFieldTypeRefs.

    ``types_compatible(p, q)`` is
    ``TypeRefsTable(Type(p)) ∩ TypeRefsTable(Type(q)) ≠ ∅``;
    non-pointer types degrade to Subtypes-set intersection, which for
    them is type equality.
    """

    name = "SMTypeRefs"

    def __init__(
        self,
        checked: CheckedModule,
        subtypes: SubtypeOracle,
        assignments: Optional[List[PointerAssignment]] = None,
        open_world: bool = False,
    ):
        self.checked = checked
        self.subtypes = subtypes
        self.open_world = open_world
        self.assignments = (
            assignments if assignments is not None else collect_pointer_assignments(checked)
        )
        self.merges = [a for a in self.assignments if a.is_merge()]
        self._table: Dict[int, FrozenSet[int]] = {}
        self._mask_table: Dict[int, int] = {}
        self._build()

    def _build(self) -> None:
        pointer_types = self.checked.types.pointer_types()
        # Step 1: one group per pointer type.
        group: UnionFind = UnionFind(id(t) for t in pointer_types)
        # Step 2: merge on every pointer assignment with differing types.
        for merge in self.merges:
            group.union(id(merge.dst_type), id(merge.src_type))
        # Open world: unavailable code may assign between any two
        # subtype-related types it can reconstruct (i.e. non-branded).
        if self.open_world:
            for obj in self.checked.object_types():
                if obj.brand is not None:
                    continue
                for ancestor in obj.ancestors():
                    if ancestor is obj or ancestor.brand is not None:
                        continue
                    group.union(id(obj), id(ancestor))
        # Step 3: TypeRefsTable(t) = group(t) ∩ Subtypes(t), as bitmasks
        # over the subtype oracle's dense type numbering.
        group_masks: Dict[int, int] = {}
        for t in pointer_types:
            root = group.find(id(t))
            group_masks[root] = group_masks.get(root, 0) | (
                1 << self.subtypes.type_bit(t)
            )
        pruned_refs = 0
        for t in pointer_types:
            group_mask = group_masks[group.find(id(t))]
            mask = group_mask & self.subtypes.subtype_mask(t)
            pruned_refs += popcount(group_mask) - popcount(mask)
            self._mask_table[id(t)] = mask
            self._table[id(t)] = frozenset(
                id(u) for u in self.subtypes.types_of_mask(mask)
            )
        self._record_build_metrics(group, pruned_refs, len(pointer_types))

    def _record_build_metrics(self, group: UnionFind, pruned_refs: int,
                              n_pointer_types: int) -> None:
        """One set of child metrics per oracle build (DESIGN.md §6e).

        ``pruned_refs`` is the total number of (type, referenced-type)
        entries Step 3's ``∩ Subtypes(t)`` removed from the raw merge
        groups — the table's asymmetry, made countable.
        """
        registry = metrics.registry()
        world = "open" if self.open_world else "closed"
        registry.new_counter(
            "smtyperefs.unionfind.finds", world=world).inc(group.finds)
        registry.new_counter(
            "smtyperefs.unionfind.merges", world=world).inc(group.merges)
        registry.new_counter(
            "smtyperefs.typerefs.pruned_refs", world=world).inc(pruned_refs)
        registry.new_counter(
            "smtyperefs.assignments.merging", world=world).inc(len(self.merges))
        registry.gauge("smtyperefs.pointer_types", world=world).set(
            n_pointer_types)
        registry.gauge("smtyperefs.groups", world=world).set(group.n_classes)

    # ------------------------------------------------------------------

    def type_refs_mask(self, t: Type) -> int:
        """TypeRefsTable(t) as a bitmask (the query representation)."""
        mask = self._mask_table.get(id(t))
        if mask is not None:
            return mask
        return self.subtypes.subtype_mask(t)

    def type_refs(self, t: Type) -> FrozenSet[int]:
        """TypeRefsTable(t) as a set of type identities."""
        cached = self._table.get(id(t))
        if cached is not None:
            return cached
        return self.subtypes.subtype_set(t)

    def type_refs_types(self, t: Type) -> List[Type]:
        """TypeRefsTable(t) as type objects (for reports and tests)."""
        ids = self.type_refs(t)
        return [u for u in self.checked.types.all_types if id(u) in ids]

    def types_compatible(self, p: AccessPath, q: AccessPath) -> bool:
        tp, tq = p.type, q.type
        if tp is tq:
            return True
        return (self.type_refs_mask(tp) & self.type_refs_mask(tq)) != 0


def SMFieldTypeRefsAnalysis(
    checked: CheckedModule,
    subtypes: SubtypeOracle,
    address_taken: AddressTakenInfo,
    assignments: Optional[List[PointerAssignment]] = None,
    open_world: bool = False,
) -> FieldTypeDeclAnalysis:
    """SMFieldTypeRefs = FieldTypeDecl with the SMTypeRefs leaf oracle."""
    oracle = SMTypeRefsOracle(checked, subtypes, assignments, open_world=open_world)
    return FieldTypeDeclAnalysis(oracle, address_taken, name="SMFieldTypeRefs")
