"""Fact partitions: what the serving fact cache keeps per module.

The serve layer (:mod:`repro.serve`) persists everything it derived
from one checked module, keyed by the module's content hash, so an
unchanged module never recompiles.  This module owns that record and
its layout:

* :class:`ConfigFacts` carries the cached answer of one (analysis,
  world) configuration: its three Table 5 counts.
* :func:`world_summary` counts the facts of one (module, world) pair —
  object and pointer types, Steensgaard classes, address-taken fields
  and variables — which is what the ``facts`` serve op returns.
* :class:`FactBundle` is the whole per-module partition: module and
  per-procedure content hashes, every served configuration's
  :class:`ConfigFacts`, and both worlds' summaries.
  :meth:`FactBundle.to_json` gives it as plain JSON data and
  :meth:`FactBundle.from_json` reads that back, raising
  :class:`ValueError` on any other shape and on any schema
  (:data:`FACTS_SCHEMA_VERSION`) or package version but this build's,
  so a stale partition reads as a miss.

Procedure hashes are taken **at lower time** over each procedure's
formatted IR (:func:`proc_ir_hashes`): two sources that lower to the
same IR hash identically, and an edit to one procedure body changes
exactly that procedure's hash — which is what lets the serve layer
report invalidation at procedure granularity.
"""

import hashlib
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.steensgaard import SteensgaardTypesOracle
from repro.ir.cfg import ProgramIR
from repro.ir.printer import format_proc

#: Bumped whenever the bundle layout changes; the fact cache treats
#: other versions as misses.
#: v2: :class:`ConfigFacts` holds the Table 5 counts only (no matrix).
#: v3: plain JSON data; a world is its :func:`world_summary` counts.
#: v4: procedure hashes are taken over the lowered IR, before the back
#: end's CSE.
#: v5: each procedure numbers its own blocks, compiler locals and fresh
#: roots, so its hash no longer depends on what the process compiled
#: before; a v4 hash must not be diffed against a v5 one.
FACTS_SCHEMA_VERSION = 5


def source_hash(source: str) -> str:
    """Content hash of one module's source text (the partition key)."""
    return hashlib.sha256(source.encode()).hexdigest()


def proc_ir_hashes(program: ProgramIR) -> Dict[str, str]:
    """``procedure name -> sha256(formatted IR)`` of lowered *program*.

    Callers pass :meth:`repro.Program.lowered`, so the hash is taken at
    lower time, before any optimizer runs.  A procedure numbers its own
    blocks, temporaries, compiler locals and fresh roots, so equal
    procedure sources hash equally in any process.
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
# World summaries


def world_summary(context) -> dict:
    """The ``facts`` op's counts for one
    :class:`~repro.analysis.openworld.AnalysisContext`.

    Object and pointer types, Steensgaard merge classes (from the
    oracle's own union-find), and address-taken fields and variables.
    """
    steensgaard = SteensgaardTypesOracle(
        context.checked, context.subtypes, context.assignments)
    address_taken = context.address_taken
    return {
        "open_world": context.open_world,
        "object_types": len(context.checked.object_types()),
        "pointer_types": len(context.checked.types.pointer_types()),
        "steensgaard_classes": steensgaard.n_classes,
        "address_taken_fields": len(
            {(f, str(t)) for f, t in address_taken._fields}),
        "address_taken_vars": len(address_taken.taken_vars),
    }


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


#: The JSON type of every field of a bundle, of one configuration and
#: of one world summary: :meth:`FactBundle.from_json` accepts exactly
#: these.
_BUNDLE_FIELDS = {
    "schema": int, "repro_version": str, "module_name": str,
    "module_hash": str, "proc_hashes": dict, "configs": list, "worlds": list,
}
_CONFIG_FIELDS = {
    "analysis": str, "open_world": bool, "references": int,
    "local_pairs": int, "global_pairs": int,
}
_WORLD_FIELDS = {
    "open_world": bool, "object_types": int, "pointer_types": int,
    "steensgaard_classes": int, "address_taken_fields": int,
    "address_taken_vars": int,
}


def _record(obj: object, fields: Dict[str, type], what: str) -> dict:
    """*obj* if it is a JSON object with exactly *fields*, each of its
    JSON type (``True`` is not an integer here); else :class:`ValueError`."""
    if not (isinstance(obj, dict) and obj.keys() == fields.keys()
            and all(type(obj[k]) is t for k, t in fields.items())):
        raise ValueError("malformed {} in fact partition".format(what))
    return obj


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
    #: ``open_world -> world_summary(...)``.
    worlds: Dict[bool, dict] = field(default_factory=dict)

    def config(self, analysis: str, open_world: bool) -> Optional[ConfigFacts]:
        return self.configs.get((analysis, open_world))

    def add_config(self, facts: ConfigFacts) -> None:
        self.configs[(facts.analysis, facts.open_world)] = facts

    def n_configs(self) -> int:
        return len(self.configs)

    def to_json(self) -> dict:
        """The bundle as plain JSON data: the partition payload."""
        return {
            "schema": self.schema,
            "repro_version": self.repro_version,
            "module_name": self.module_name,
            "module_hash": self.module_hash,
            "proc_hashes": self.proc_hashes,
            "configs": [asdict(facts) for facts in self.configs.values()],
            "worlds": list(self.worlds.values()),
        }

    @classmethod
    def from_json(cls, obj: object) -> "FactBundle":
        """Inverse of :meth:`to_json`.

        Raises :class:`ValueError` unless *obj* has exactly the shape
        :meth:`to_json` writes, under this build's schema and package
        version.
        """
        from repro import __version__

        obj = _record(obj, _BUNDLE_FIELDS, "bundle")
        if (obj["schema"], obj["repro_version"]) != \
                (FACTS_SCHEMA_VERSION, __version__):
            raise ValueError("fact partition of another schema or build")
        if not all(type(h) is str for h in obj["proc_hashes"].values()):
            raise ValueError("malformed proc_hashes in fact partition")
        bundle = cls(
            schema=obj["schema"],
            repro_version=obj["repro_version"],
            module_name=obj["module_name"],
            module_hash=obj["module_hash"],
            proc_hashes=obj["proc_hashes"],
        )
        for config in obj["configs"]:
            bundle.add_config(
                ConfigFacts(**_record(config, _CONFIG_FIELDS, "config")))
        for world in obj["worlds"]:
            world = _record(world, _WORLD_FIELDS, "world summary")
            bundle.worlds[world["open_world"]] = world
        return bundle


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
