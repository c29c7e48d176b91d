"""Deterministic MiniM3 program generator for soundness fuzzing.

Design constraints, in order:

1. **Deterministic** — a seed fully determines the program.  The batch
   runner numbers programs ``base_seed + i`` and any failure names the
   seed that reproduces it.
2. **Type-correct by construction** — the generator tracks declared
   types and only emits assignments whose right side is a subtype of the
   left, field accesses that exist on the declared type, and constant
   subscripts within bounds (via ``MOD``).  A generated program failing
   to compile is itself an oracle violation (phase ``compile``).
3. **Terminating** — loops are ``FOR`` with small constant bounds and
   generated procedures never call anything, so every program halts well
   inside the interpreter step budget.
4. **Adversarial for TBAA** — the shapes that historically break
   unification-based analyses are over-represented: object hierarchies
   with sibling subtypes, supertype variables holding subtype values
   (the ``TypeRefsTable`` asymmetry), field writes through ``VAR``
   parameters (AddressTaken), ``WITH`` handles, open arrays behind dope
   vectors, and occasional ``NIL`` stores (traps are tolerated by the
   dynamic oracle).

The output is a :class:`GeneratedProgram` holding its *parts* (type
declarations, globals, procedures, prologue/body/epilogue statements)
rather than flat text, so the delta-debugging reducer can drop parts and
re-render without re-parsing.
"""

import random
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

__all__ = ["GenConfig", "GeneratedProgram", "generate_program"]

ARRAY_LEN = 8  # fixed length of the open integer array every program has


@dataclass(frozen=True)
class GenConfig:
    """Size bounds for one generated program."""

    max_object_types: int = 4   # besides the fixed REF types
    max_ref_vars: int = 4
    max_int_vars: int = 3
    max_procs: int = 3
    max_stmts: int = 22         # top-level statements in the body
    max_depth: int = 2          # IF/FOR/WITH nesting
    allow_methods: bool = True
    allow_nil: bool = True      # NIL stores (later derefs may trap)


@dataclass
class GeneratedProgram:
    """A generated module, kept as parts so the reducer can shrink it."""

    seed: int
    name: str
    type_decls: List[str] = field(default_factory=list)
    var_decls: List[str] = field(default_factory=list)
    procs: List[str] = field(default_factory=list)
    prologue: List[str] = field(default_factory=list)   # allocations
    body: List[str] = field(default_factory=list)
    epilogue: List[str] = field(default_factory=list)   # checksum output

    def render(self) -> str:
        parts: List[str] = ["MODULE {};".format(self.name), ""]
        if self.type_decls:
            parts.append("TYPE")
            parts.extend("  " + d for d in self.type_decls)
            parts.append("")
        if self.var_decls:
            parts.append("VAR")
            parts.extend("  " + d for d in self.var_decls)
            parts.append("")
        for proc in self.procs:
            parts.append(proc)
            parts.append("")
        parts.append("BEGIN")
        for stmt in self.prologue + self.body + self.epilogue:
            parts.extend("  " + line for line in stmt.splitlines())
        parts.append("END {}.".format(self.name))
        return "\n".join(parts) + "\n"

    def statement_count(self) -> int:
        return len(self.prologue) + len(self.body) + len(self.epilogue)

    def with_parts(self, **kwargs) -> "GeneratedProgram":
        """A copy with some part lists replaced (for the reducer)."""
        return replace(
            self,
            **{k: list(v) for k, v in kwargs.items()},
        )


# ----------------------------------------------------------------------
# Internal model of the declared world


@dataclass
class _ObjType:
    name: str
    parent: Optional["_ObjType"]
    int_fields: List[str]
    ref_fields: List[Tuple[str, "_ObjType"]]  # (field name, field type)

    def all_int_fields(self) -> List[str]:
        out = list(self.int_fields)
        if self.parent is not None:
            out = self.parent.all_int_fields() + out
        return out

    def all_ref_fields(self) -> List[Tuple[str, "_ObjType"]]:
        out = list(self.ref_fields)
        if self.parent is not None:
            out = self.parent.all_ref_fields() + out
        return out

    def is_subtype_of(self, other: "_ObjType") -> bool:
        node: Optional[_ObjType] = self
        while node is not None:
            if node is other:
                return True
            node = node.parent
        return False


class _Generator:
    def __init__(self, seed: int, config: GenConfig):
        self.rng = random.Random(seed)
        self.config = config
        self.seed = seed
        self.obj_types: List[_ObjType] = []
        self.ref_vars: Dict[str, _ObjType] = {}
        self.int_vars: List[str] = []
        self.proc_calls: List[str] = []  # call templates, e.g. "Poke{} ({}, {});"

    # -- declarations ---------------------------------------------------

    def _gen_types(self, out: GeneratedProgram) -> None:
        rng = self.rng
        n = rng.randint(2, max(2, self.config.max_object_types))
        field_serial = 0
        for i in range(n):
            name = "T{}".format(i)
            parent = rng.choice([None] + self.obj_types) if self.obj_types else None
            n_ints = rng.randint(1, 2)
            int_fields = []
            for _ in range(n_ints):
                int_fields.append("f{}".format(field_serial))
                field_serial += 1
            obj = _ObjType(name, parent, int_fields, [])
            # Ref fields may point anywhere already declared, or at the
            # type itself (linked structures).
            for _ in range(rng.randint(0, 2)):
                target = rng.choice(self.obj_types + [obj])
                obj.ref_fields.append(("r{}".format(field_serial), target))
                field_serial += 1
            self.obj_types.append(obj)
        for obj in self.obj_types:
            fields = ["{}: INTEGER;".format(f) for f in obj.int_fields]
            fields += ["{}: {};".format(f, t.name) for f, t in obj.ref_fields]
            super_part = obj.parent.name + " " if obj.parent is not None else ""
            out.type_decls.append(
                "{} = {}OBJECT {} END;".format(obj.name, super_part, " ".join(fields))
            )
        out.type_decls.append("Arr = REF ARRAY OF INTEGER;")
        out.type_decls.append("Cell = REF INTEGER;")

    def _gen_vars(self, out: GeneratedProgram) -> None:
        rng = self.rng
        n_refs = rng.randint(2, max(2, self.config.max_ref_vars))
        for i in range(n_refs):
            obj = rng.choice(self.obj_types)
            self.ref_vars["v{}".format(i)] = obj
        for name, obj in self.ref_vars.items():
            out.var_decls.append("{}: {};".format(name, obj.name))
        self.int_vars = ["x{}".format(i) for i in range(rng.randint(1, self.config.max_int_vars))]
        out.var_decls.append("{}: INTEGER;".format(", ".join(self.int_vars)))
        out.var_decls.append("arr: Arr;")
        out.var_decls.append("cell: Cell;")

    def _gen_procs(self, out: GeneratedProgram) -> None:
        rng = self.rng
        n = rng.randint(0, self.config.max_procs)
        for i in range(n):
            kind = rng.choice(["poke", "get", "bump"])
            obj = rng.choice(self.obj_types)
            if kind == "poke":
                target = rng.choice(obj.all_int_fields())
                out.procs.append(
                    "PROCEDURE Poke{i} (o: {t}; k: INTEGER) =\n"
                    "BEGIN\n"
                    "  o.{f} := k;\n"
                    "END Poke{i};".format(i=i, t=obj.name, f=target)
                )
                self.proc_calls.append(
                    ("Poke{} ({{ref:{}}}, {{int}});".format(i, obj.name))
                )
            elif kind == "get":
                fields = obj.all_int_fields()
                expr = " + ".join("o." + f for f in fields[:2])
                out.procs.append(
                    "PROCEDURE Get{i} (o: {t}): INTEGER =\n"
                    "BEGIN\n"
                    "  RETURN {e};\n"
                    "END Get{i};".format(i=i, t=obj.name, e=expr)
                )
                self.proc_calls.append(
                    "{{intvar}} := Get{} ({{ref:{}}});".format(i, obj.name)
                )
            else:
                out.procs.append(
                    "PROCEDURE Bump{i} (VAR v: INTEGER) =\n"
                    "BEGIN\n"
                    "  v := v + 1;\n"
                    "END Bump{i};".format(i=i)
                )
                self.proc_calls.append("Bump{} ({{intdes}});".format(i))

    # -- expression/designator pools -------------------------------------

    def _vars_of_subtype(self, obj: _ObjType) -> List[str]:
        """Variables whose value is assignable to a slot of type *obj*."""
        return self._subtype_vars[obj.name]

    def _ref_designators(self, obj: _ObjType) -> List[str]:
        """Designators of declared type ⊆ *obj* (variables and ref fields)."""
        return self._ref_pools[obj.name]

    def _build_pools(self) -> None:
        """Cache the designator pools.  The declared types and variables
        are final once statement generation begins; the RNG draws stay
        with the callers, in their original order."""
        self._subtype_vars: Dict[str, List[str]] = {
            obj.name: [n for n, t in self.ref_vars.items() if t.is_subtype_of(obj)]
            for obj in self.obj_types
        }
        self._ref_pools: Dict[str, List[str]] = {
            obj.name: self._subtype_vars[obj.name] + [
                "{}.{}".format(name, f)
                for name, t in self.ref_vars.items()
                for f, ft in t.all_ref_fields()
                if ft.is_subtype_of(obj)
            ]
            for obj in self.obj_types
        }
        self._int_fields = [
            "{}.{}".format(name, f)
            for name, t in self.ref_vars.items()
            for f in t.all_int_fields()
        ]
        # One-hop paths through ref fields (may trap on NIL; tolerated):
        # the prefix and the int fields of its target.
        self._hops = [
            ("{}.{}".format(name, f), ints)
            for name, t in self.ref_vars.items()
            for f, ft in t.all_ref_fields()
            for ints in [ft.all_int_fields()]
            if ints
        ]

    def _int_designator(self) -> str:
        rng = self.rng
        choices: List[str] = list(self.int_vars)
        choices.append("cell^")
        choices.append("arr^[{}]".format(rng.randint(0, ARRAY_LEN - 1)))
        if self.int_vars:
            choices.append(
                "arr^[{} MOD {}]".format(rng.choice(self.int_vars), ARRAY_LEN)
            )
        choices += self._int_fields
        for prefix, ints in self._hops:
            choices.append("{}.{}".format(prefix, rng.choice(ints)))
        return rng.choice(choices)

    def _int_expr(self) -> str:
        rng = self.rng
        roll = rng.random()
        if roll < 0.35:
            return str(rng.randint(0, 9))
        if roll < 0.85:
            return self._int_designator()
        return "{} + {}".format(self._int_designator(), rng.randint(1, 3))

    def _fill(self, template: str) -> Optional[str]:
        """Instantiate a proc-call template; None if no value fits."""
        rng = self.rng
        text = template
        while "{" in text:
            start = text.index("{")
            end = text.index("}", start)
            hole = text[start + 1 : end]
            if hole.startswith("ref:"):
                obj = next(t for t in self.obj_types if t.name == hole[4:])
                pool = self._vars_of_subtype(obj)
                if not pool:
                    return None
                value = rng.choice(pool)
            elif hole == "int":
                value = self._int_expr()
            elif hole == "intvar":
                value = rng.choice(self.int_vars)
            else:  # intdes
                value = self._int_designator()
            text = text[:start] + value + text[end + 1 :]
        return text

    # -- statements ------------------------------------------------------

    def _stmt(self, depth: int) -> str:
        rng = self.rng
        kinds = ["int-assign"] * 4 + ["ref-assign"] * 2 + ["field-ref-assign"]
        if self.proc_calls:
            kinds += ["call"] * 2
        if depth > 0:
            kinds += ["if", "for", "with"]
        kind = rng.choice(kinds)
        if kind == "int-assign":
            return "{} := {};".format(self._int_designator(), self._int_expr())
        if kind == "ref-assign":
            name = rng.choice(list(self.ref_vars))
            return "{} := {};".format(name, self._ref_value(self.ref_vars[name]))
        if kind == "field-ref-assign":
            with_ref_fields = [
                (n, f, ft)
                for n, t in self.ref_vars.items()
                for f, ft in t.all_ref_fields()
            ]
            if not with_ref_fields:
                return "{} := {};".format(self._int_designator(), self._int_expr())
            name, f, ft = rng.choice(with_ref_fields)
            return "{}.{} := {};".format(name, f, self._ref_value(ft))
        if kind == "call":
            stmt = self._fill(rng.choice(self.proc_calls))
            if stmt is None:
                return "{} := {};".format(self._int_designator(), self._int_expr())
            return stmt
        if kind == "if":
            cond = self._cond()
            then_body = self._stmts(depth - 1, rng.randint(1, 3))
            text = "IF {} THEN\n{}\n".format(cond, _indent(then_body))
            if rng.random() < 0.4:
                else_body = self._stmts(depth - 1, rng.randint(1, 2))
                text += "ELSE\n{}\n".format(_indent(else_body))
            return text + "END;"
        if kind == "for":
            body = self._stmts(depth - 1, rng.randint(1, 3))
            return "FOR k{} := 0 TO {} DO\n{}\nEND;".format(
                rng.randint(0, 9), rng.randint(1, 5), _indent(body)
            )
        # with
        binding = self._int_designator()
        body = self._stmts(depth - 1, rng.randint(1, 2))
        return "WITH w{} = {} DO\n{}\nEND;".format(
            rng.randint(0, 9), binding, _indent(body)
        )

    def _ref_value(self, obj: _ObjType) -> str:
        """An expression assignable to a slot of declared type *obj*."""
        rng = self.rng
        pool = self._ref_designators(obj)
        subtypes = [t for t in self.obj_types if t.is_subtype_of(obj)]
        roll = rng.random()
        if pool and roll < 0.6:
            return rng.choice(pool)
        if self.config.allow_nil and roll > 0.97:
            return "NIL"
        target = rng.choice(subtypes)
        inits = []
        ints = target.all_int_fields()
        if ints and rng.random() < 0.7:
            inits.append("{} := {}".format(rng.choice(ints), rng.randint(0, 9)))
        args = ", ".join([target.name] + inits)
        return "NEW ({})".format(args)

    def _cond(self) -> str:
        rng = self.rng
        roll = rng.random()
        if roll < 0.5:
            return "{} {} {}".format(
                self._int_designator(), rng.choice(["<", ">", "#", "="]), self._int_expr()
            )
        if roll < 0.8:
            # Reference comparison: MiniM3 only compares related types.
            names = list(self.ref_vars)
            a = rng.choice(names)
            ta = self.ref_vars[a]
            related = [
                n
                for n, t in self.ref_vars.items()
                if t.is_subtype_of(ta) or ta.is_subtype_of(t)
            ]
            b = rng.choice(related)
            return "{} {} {}".format(a, rng.choice(["=", "#"]), b)
        # Type test: always safe, exercises the hierarchy at run time.
        name, t = rng.choice(list(self.ref_vars.items()))
        subtypes = [o for o in self.obj_types if o.is_subtype_of(t)]
        return "ISTYPE ({}, {})".format(name, rng.choice(subtypes).name)

    def _stmts(self, depth: int, count: int) -> str:
        return "\n".join(self._stmt(depth) for _ in range(count))

    # -- program ---------------------------------------------------------

    def generate(self) -> GeneratedProgram:
        rng = self.rng
        out = GeneratedProgram(self.seed, "Fuzz{}".format(self.seed))
        self._gen_types(out)
        self._gen_vars(out)
        self._gen_procs(out)
        self._build_pools()

        # Prologue: allocate every global so early statements can
        # dereference them; supertype variables deliberately receive
        # subtype values when possible (the SMTypeRefs asymmetry).
        for name, obj in self.ref_vars.items():
            subtypes = [t for t in self.obj_types if t.is_subtype_of(obj)]
            target = rng.choice(subtypes)
            inits = []
            ints = target.all_int_fields()
            if ints:
                inits.append("{} := {}".format(ints[0], rng.randint(1, 9)))
            out.prologue.append(
                "{} := NEW ({});".format(name, ", ".join([target.name] + inits))
            )
        out.prologue.append("arr := NEW (Arr, {});".format(ARRAY_LEN))
        out.prologue.append("cell := NEW (Cell);")
        # Link every reachable ref field so one-hop paths rarely trap:
        # prefer sharing an existing variable (creates real aliasing for
        # the dynamic oracle), else allocate a fresh object.
        for name, t in self.ref_vars.items():
            for f, ft in t.all_ref_fields():
                pool = self._vars_of_subtype(ft)
                if pool and rng.random() < 0.8:
                    value = rng.choice(pool)
                else:
                    value = "NEW ({})".format(ft.name)
                out.prologue.append("{}.{} := {};".format(name, f, value))

        n_stmts = rng.randint(5, max(5, self.config.max_stmts))
        for _ in range(n_stmts):
            out.body.append(self._stmt(self.config.max_depth))

        checksum = " + ".join(
            self.int_vars
            + ["cell^"]
            + ["arr^[{}]".format(i) for i in range(0, ARRAY_LEN, 3)]
        )
        out.epilogue.append("PutInt ({});".format(checksum))
        out.epilogue.append("PutChar (' ');")
        return out


def _indent(text: str, by: str = "  ") -> str:
    return "\n".join(by + line for line in text.splitlines())


def generate_program(seed: int, config: Optional[GenConfig] = None) -> GeneratedProgram:
    """Generate the (unique) program of *seed* under *config*."""
    return _Generator(seed, config or GenConfig()).generate()
