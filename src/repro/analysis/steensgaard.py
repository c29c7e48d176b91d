"""Steensgaard's merging applied to user types — the footnote 4 baseline.

The paper's footnote 4:

    "If we took Steensgaard's algorithm [32] and applied it to user
     defined types, it would not discover this asymmetry."

I.e. plain equivalence-class merging over declared types performs Steps 1
and 2 of Figure 2 but *not* Step 3's pruning by the subtype relation:
``TypeRefsTable(t)`` is the whole equivalence class of ``t``.  After
``t := s1; t := s2`` an AP of type S1 is then assumed able to reference
T and S2 objects — which SMTypeRefs's asymmetric table rules out.

This module exists as a measurable related-work baseline: it must be
sound, weaker than (or equal to) SMTypeRefs, and stronger than TypeDecl
is *not* guaranteed — the two are incomparable in general (Steensgaard
merging ignores subtyping entirely, TypeDecl ignores assignments
entirely), which the tests demonstrate.
"""

from typing import Dict, FrozenSet, List, Optional

from repro.analysis.address_taken import AddressTakenInfo
from repro.analysis.alias_base import TypeOracle
from repro.analysis.fieldtypedecl import FieldTypeDeclAnalysis
from repro.analysis.smtyperefs import PointerAssignment, collect_pointer_assignments
from repro.analysis.typehierarchy import SubtypeOracle
from repro.ir.access_path import AccessPath
from repro.lang.typecheck import CheckedModule
from repro.lang.types import Type
from repro.obs import metrics
from repro.util.unionfind import UnionFind


class SteensgaardTypesOracle(TypeOracle):
    """Union-find over types with NO subtype pruning (Steps 1-2 only)."""

    name = "SteensgaardTypes"

    def __init__(
        self,
        checked: CheckedModule,
        subtypes: SubtypeOracle,
        assignments: Optional[List[PointerAssignment]] = None,
    ):
        self.checked = checked
        self.subtypes = subtypes
        self.assignments = (
            assignments if assignments is not None else collect_pointer_assignments(checked)
        )
        self._table: Dict[int, FrozenSet[int]] = {}
        self._mask_table: Dict[int, int] = {}
        self._build()

    def _build(self) -> None:
        pointer_types = self.checked.types.pointer_types()
        group: UnionFind = UnionFind(id(t) for t in pointer_types)
        for assignment in self.assignments:
            if assignment.is_merge():
                group.union(id(assignment.dst_type), id(assignment.src_type))
        # Steensgaard flavour: the *declared subtype relation* also forces
        # merges (a T-typed path may point at any subtype it was declared
        # able to reach) — without it the baseline would be unsound for
        # paths whose subtype flow predates any assignment we saw.
        # Following the footnote's reading, we stay closest to "apply
        # Steensgaard to user types": classes come from assignments only,
        # and the *query* unions the subtype set in (symmetrically).
        group_masks: Dict[int, int] = {}
        for t in pointer_types:
            root = group.find(id(t))
            group_masks[root] = group_masks.get(root, 0) | (
                1 << self.subtypes.type_bit(t)
            )
        for t in pointer_types:
            mask = group_masks[group.find(id(t))] | self.subtypes.subtype_mask(t)
            self._mask_table[id(t)] = mask
            self._table[id(t)] = frozenset(
                id(u) for u in self.subtypes.types_of_mask(mask)
            )
        # Over-merging is exactly what this baseline exists to measure
        # (cf. oversharing diagnostics in unification-based analyses):
        # record the equivalence-class size distribution per build.
        registry = metrics.registry()
        sizes = registry.new_histogram("steensgaard.group.size")
        for cls in group.classes():
            sizes.observe(len(cls))
        registry.gauge("steensgaard.groups").set(group.n_classes)
        registry.new_counter("steensgaard.unionfind.merges").inc(group.merges)

    def class_mask(self, t: Type) -> int:
        mask = self._mask_table.get(id(t))
        if mask is not None:
            return mask
        return self.subtypes.subtype_mask(t)

    def class_of(self, t: Type) -> FrozenSet[int]:
        cached = self._table.get(id(t))
        if cached is not None:
            return cached
        return self.subtypes.subtype_set(t)

    def types_compatible(self, p: AccessPath, q: AccessPath) -> bool:
        tp, tq = p.type, q.type
        if tp is tq:
            return True
        return (self.class_mask(tp) & self.class_mask(tq)) != 0


def SteensgaardFieldTypeRefsAnalysis(
    checked: CheckedModule,
    subtypes: SubtypeOracle,
    address_taken: AddressTakenInfo,
    assignments: Optional[List[PointerAssignment]] = None,
) -> FieldTypeDeclAnalysis:
    """FieldTypeDecl over the unpruned Steensgaard class table."""
    oracle = SteensgaardTypesOracle(checked, subtypes, assignments)
    return FieldTypeDeclAnalysis(
        oracle, address_taken, name="SteensgaardFieldTypeRefs"
    )
