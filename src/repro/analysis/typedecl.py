"""TypeDecl — TBAA using type declarations only (Section 2.2).

    Given two APs p and q, TypeDecl(p, q) determines they may be aliases
    if and only if Subtypes(Type(p)) ∩ Subtypes(Type(q)) ≠ ∅.

This is the weakest of the three analyses: it merges every access of
compatible type, ignoring fields, the qualify/subscript distinction and
the program's actual assignments.  The paper's Table 5 shows it to be
"very imprecise"; reproducing that gap is the point of keeping it.
"""

from repro.analysis.alias_base import AliasAnalysis, TypeOracle
from repro.analysis.typehierarchy import SubtypeOracle
from repro.ir.access_path import AccessPath


class TypeDeclOracle(TypeOracle):
    """The declared-type compatibility test, used standalone by TypeDecl
    and as the leaf oracle inside FieldTypeDecl."""

    name = "TypeDecl"

    def __init__(self, subtypes: SubtypeOracle):
        self.subtypes = subtypes

    def types_compatible(self, p: AccessPath, q: AccessPath) -> bool:
        return self.subtypes.compatible(p.type, q.type)


class TypeDeclAnalysis(AliasAnalysis):
    """May-alias = declared-type compatibility, nothing else."""

    name = "TypeDecl"

    def __init__(self, subtypes: SubtypeOracle):
        super().__init__()
        self.oracle = TypeDeclOracle(subtypes)

    def _may_alias(self, p: AccessPath, q: AccessPath) -> bool:
        return self.oracle.types_compatible(p, q)
