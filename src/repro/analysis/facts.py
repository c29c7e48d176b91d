"""Fact (de)serialization hooks for the serving fact cache.

Every analysis in this package derives its answers from a small set of
*facts* about one checked module — ``Subtypes(T)`` bitmasks, the
``TypeRefsTable``, the ``AddressTaken`` record and Steensgaard's merge
classes.  The serve layer (:mod:`repro.serve`) wants to persist
those facts on disk keyed by content hash so an unchanged module never
rebuilds them; this module is the bridge:

* :func:`export_subtype_masks` / :func:`export_typerefs_masks` /
  :func:`export_address_taken` / :func:`export_steensgaard_classes`
  flatten the live oracle objects into plain JSON-able structures.
  Types are identified by ``(bit, str(type))`` where ``bit`` is the
  subtype oracle's dense numbering — unique per type even when two
  anonymous types render identically.
* :class:`AnalysisWorldFacts` bundles the flattened facts of one
  (module, world) pair; :func:`collect_world_facts` builds it from an
  :class:`~repro.analysis.openworld.AnalysisContext` and its analyses.
* :class:`ConfigFacts` carries the cached answer of one (analysis,
  world) configuration: its three Table 5 counts.
* :class:`FactBundle` is the whole per-module cache partition: module
  and per-procedure content hashes, both worlds' flattened facts, and
  every configuration's :class:`ConfigFacts`.  It round-trips through
  ``pickle`` and pins :data:`FACTS_SCHEMA_VERSION` so stale partitions
  read as misses.

Procedure hashes are taken **at lower time** over each procedure's
formatted IR (:func:`proc_ir_hashes`): two sources that lower to the
same IR hash identically, and an edit to one procedure body changes
exactly that procedure's hash — which is what lets the serve layer
report invalidation at procedure granularity.
"""

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.address_taken import AddressTakenInfo
from repro.analysis.steensgaard import SteensgaardTypesOracle
from repro.analysis.smtyperefs import SMTypeRefsOracle
from repro.analysis.typehierarchy import SubtypeOracle
from repro.ir.cfg import ProgramIR
from repro.ir.printer import format_proc

#: Bumped whenever any exported fact layout changes; the fact cache
#: treats other versions as misses.
#: v2: :class:`ConfigFacts` holds the Table 5 counts only (no matrix).
FACTS_SCHEMA_VERSION = 2


def source_hash(source: str) -> str:
    """Content hash of one module's source text (the partition key)."""
    return hashlib.sha256(source.encode()).hexdigest()


def proc_ir_hashes(program: ProgramIR) -> Dict[str, str]:
    """``procedure name -> sha256(formatted IR)``, taken at lower time.

    The formatted IR is a pure function of the lowered procedure, so the
    hash is stable across processes (no ids or addresses leak into it).
    """
    return {
        proc.name: hashlib.sha256(format_proc(proc).encode()).hexdigest()
        for proc in program.user_procs()
    }


def diff_proc_hashes(old: Dict[str, str], new: Dict[str, str]
                     ) -> Tuple[List[str], List[str]]:
    """``(changed, unchanged)`` procedure names between two hash maps.

    Added and removed procedures count as changed; a procedure is
    unchanged only when present on both sides with the same hash.
    """
    changed: List[str] = []
    unchanged: List[str] = []
    for name in sorted(set(old) | set(new)):
        if old.get(name) == new.get(name) and name in old:
            unchanged.append(name)
        else:
            changed.append(name)
    return changed, unchanged


# ----------------------------------------------------------------------
# Flattened fact exports (plain data, deterministic order)


def export_subtype_masks(subtypes: SubtypeOracle) -> List[dict]:
    """``Subtypes(T)`` bitmasks for every object type, JSON-able."""
    return [
        {
            "bit": subtypes.type_bit(obj),
            "type": str(obj),
            "mask": subtypes.subtype_mask(obj),
        }
        for obj in subtypes.checked.object_types()
    ]


def export_typerefs_masks(oracle: SMTypeRefsOracle) -> List[dict]:
    """The asymmetric ``TypeRefsTable`` as per-pointer-type bitmasks."""
    return [
        {
            "bit": oracle.subtypes.type_bit(t),
            "type": str(t),
            "mask": oracle.type_refs_mask(t),
        }
        for t in oracle.checked.types.pointer_types()
    ]


def export_steensgaard_classes(oracle: SteensgaardTypesOracle) -> List[List[dict]]:
    """Steensgaard merge classes as lists of ``(bit, type)`` members.

    Classes (and members within each class) sort by dense type bit, so
    the export is deterministic for a given module.
    """
    from repro.util.unionfind import UnionFind

    # The build's union-find is private to the oracle; replay Steps 1-2
    # from the same assignment list (both are deterministic).
    pointer_types = oracle.checked.types.pointer_types()
    group: UnionFind = UnionFind(id(t) for t in pointer_types)
    for assignment in oracle.assignments:
        if assignment.is_merge():
            group.union(id(assignment.dst_type), id(assignment.src_type))
    by_root: Dict[int, List[dict]] = {}
    for t in pointer_types:
        by_root.setdefault(group.find(id(t)), []).append(
            {"bit": oracle.subtypes.type_bit(t), "type": str(t)})
    classes = [sorted(members, key=lambda m: m["bit"])
               for members in by_root.values()]
    return sorted(classes, key=lambda c: c[0]["bit"])


def export_address_taken(info: AddressTakenInfo) -> dict:
    """The ``AddressTaken`` record flattened to counts and name lists."""
    fields = sorted({(f, str(t)) for f, t in info._fields})
    return {
        "open_world": info.open_world,
        "taken_fields": [list(pair) for pair in fields],
        "taken_array_types": sorted({str(t) for t in info._array_types}),
        "taken_vars": sorted(s.name for s in info.taken_vars),
        "var_formal_types": len(info._var_formal_types),
    }


@dataclass
class AnalysisWorldFacts:
    """Flattened facts of one (module, open_world) pair."""

    open_world: bool
    subtype_masks: List[dict]
    typerefs_masks: List[dict]
    steensgaard_classes: List[List[dict]]
    address_taken: dict

    def summary(self) -> dict:
        """Small JSON-able digest (what the ``facts`` serve op returns)."""
        return {
            "open_world": self.open_world,
            "object_types": len(self.subtype_masks),
            "pointer_types": len(self.typerefs_masks),
            "steensgaard_classes": len(self.steensgaard_classes),
            "address_taken_fields": len(self.address_taken["taken_fields"]),
            "address_taken_vars": len(self.address_taken["taken_vars"]),
        }


def collect_world_facts(context) -> AnalysisWorldFacts:
    """Flatten one :class:`~repro.analysis.openworld.AnalysisContext`.

    Builds the SMTypeRefs and Steensgaard oracles from the context's
    shared assignment list (cheap relative to compile) so the exported
    facts describe exactly what the served analyses will answer from.
    """
    typerefs = SMTypeRefsOracle(
        context.checked, context.subtypes, context.assignments,
        open_world=context.open_world)
    steensgaard = SteensgaardTypesOracle(
        context.checked, context.subtypes, context.assignments)
    return AnalysisWorldFacts(
        open_world=context.open_world,
        subtype_masks=export_subtype_masks(context.subtypes),
        typerefs_masks=export_typerefs_masks(typerefs),
        steensgaard_classes=export_steensgaard_classes(steensgaard),
        address_taken=export_address_taken(context.address_taken),
    )


# ----------------------------------------------------------------------
# Per-configuration and per-module bundles


@dataclass
class ConfigFacts:
    """Cached Table 5 counts of one (analysis, open_world) config."""

    analysis: str
    open_world: bool
    references: int
    local_pairs: int
    global_pairs: int

    def counts(self) -> Tuple[int, int, int]:
        return (self.references, self.local_pairs, self.global_pairs)


#: Key of one configuration inside a bundle.
ConfigKey = Tuple[str, bool]


@dataclass
class FactBundle:
    """One fact-cache partition: everything derived from one module.

    ``configs`` and ``worlds`` fill lazily as configurations are first
    served; a bundle restored from disk answers repeat queries without
    any compilation at all.
    """

    schema: int
    repro_version: str
    module_name: str
    module_hash: str
    proc_hashes: Dict[str, str]
    configs: Dict[ConfigKey, ConfigFacts] = field(default_factory=dict)
    worlds: Dict[bool, AnalysisWorldFacts] = field(default_factory=dict)

    def config(self, analysis: str, open_world: bool) -> Optional[ConfigFacts]:
        return self.configs.get((analysis, open_world))

    def add_config(self, facts: ConfigFacts) -> None:
        self.configs[(facts.analysis, facts.open_world)] = facts

    def n_configs(self) -> int:
        return len(self.configs)


def new_bundle(module_name: str, module_hash: str,
               proc_hashes: Dict[str, str]) -> FactBundle:
    from repro import __version__

    return FactBundle(
        schema=FACTS_SCHEMA_VERSION,
        repro_version=__version__,
        module_name=module_name,
        module_hash=module_hash,
        proc_hashes=dict(proc_hashes),
    )


def bundle_is_current(bundle: object) -> bool:
    """True when *bundle* is a :class:`FactBundle` this build can serve."""
    from repro import __version__

    return (
        isinstance(bundle, FactBundle)
        and bundle.schema == FACTS_SCHEMA_VERSION
        and bundle.repro_version == __version__
    )
