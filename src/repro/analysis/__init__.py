"""The paper's contribution: three type-based alias analyses + clients.

* :mod:`repro.analysis.typehierarchy` — ``Subtypes(T)`` sets (Section 2.1);
* :mod:`repro.analysis.typedecl` — **TypeDecl** (Section 2.2): may-alias
  iff the subtype sets of the declared types intersect;
* :mod:`repro.analysis.address_taken` — the ``AddressTaken`` predicate
  over VAR parameters and WITH statements, with the open-world revision
  of Section 4;
* :mod:`repro.analysis.fieldtypedecl` — **FieldTypeDecl** (Section 2.3,
  Table 2): the seven structural cases over access paths;
* :mod:`repro.analysis.smtyperefs` — **SMTypeRefs** (Section 2.4,
  Figure 2): selective type merging over all implicit/explicit pointer
  assignments, producing the asymmetric ``TypeRefsTable``;
  **SMFieldTypeRefs** = FieldTypeDecl with SMTypeRefs substituted for
  TypeDecl;
* :mod:`repro.analysis.callgraph`, :mod:`repro.analysis.modref` — the
  interprocedural mod-ref summaries RLE consults at call sites;
* :mod:`repro.analysis.alias_pairs` — the static alias-pair metric of
  Table 5;
* :mod:`repro.analysis.openworld` — factory for the incomplete-program
  variants of all three analyses (Section 4, Figure 12).
"""

from repro.analysis.typehierarchy import SubtypeOracle
from repro.analysis.alias_base import AliasAnalysis, TypeOracle
from repro.analysis.typedecl import TypeDeclAnalysis, TypeDeclOracle
from repro.analysis.address_taken import AddressTakenInfo, collect_address_taken
from repro.analysis.fieldtypedecl import FieldTypeDeclAnalysis
from repro.analysis.smtyperefs import (
    SMTypeRefsOracle,
    SMFieldTypeRefsAnalysis,
    collect_pointer_assignments,
    PointerAssignment,
)
from repro.analysis.callgraph import CallGraph
from repro.analysis.modref import ModRefAnalysis, ModRefSummary
from repro.analysis.alias_pairs import AliasPairCounter, AliasPairReport, collect_heap_references
from repro.analysis.openworld import make_analysis, ANALYSIS_NAMES, EXTRA_ANALYSIS_NAMES
from repro.analysis.steensgaard import SteensgaardTypesOracle, SteensgaardFieldTypeRefsAnalysis
from repro.analysis.trivial import AlwaysAliasAnalysis, NeverAliasAnalysis

__all__ = [
    "SubtypeOracle",
    "AliasAnalysis",
    "TypeOracle",
    "TypeDeclAnalysis",
    "TypeDeclOracle",
    "AddressTakenInfo",
    "collect_address_taken",
    "FieldTypeDeclAnalysis",
    "SMTypeRefsOracle",
    "SMFieldTypeRefsAnalysis",
    "collect_pointer_assignments",
    "PointerAssignment",
    "CallGraph",
    "ModRefAnalysis",
    "ModRefSummary",
    "AliasPairCounter",
    "AliasPairReport",
    "collect_heap_references",
    "make_analysis",
    "ANALYSIS_NAMES",
    "EXTRA_ANALYSIS_NAMES",
    "SteensgaardTypesOracle",
    "SteensgaardFieldTypeRefsAnalysis",
    "AlwaysAliasAnalysis",
    "NeverAliasAnalysis",
]
