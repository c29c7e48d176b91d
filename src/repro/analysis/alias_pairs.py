"""Static alias pairs — the traditional metric (Table 5 of the paper).

For each benchmark the paper reports:

* **References** — heap memory references in the source;
* **L Alias** — *local* pairs: references within the same procedure that
  may alias each other (self-pairs excluded);
* **G Alias** — *global* pairs: references "not necessarily within the
  same procedure" that may alias.

We enumerate references from the IR (each distinct lexical access path
per procedure), excluding compiler-introduced dope-vector accesses (not
source-level) and variable accesses through handles (a VAR parameter read
is a variable access in the source, not a heap reference — its ``p^``
form only matters for alias queries).

Two counting engines produce these numbers:

* ``reference`` — the obvious O(e²) loop: one ``may_alias`` query per
  unordered pair of references.  Kept as the oracle.
* ``fast`` — a partition-based counter in the spirit of unification-based
  analyses: references are deduplicated into distinct canonical paths
  (each with a procedure bitmask) and partitioned into *query-equivalence
  classes* — paths whose recursive signatures (constructor kinds, field
  names, AddressTaken bits, leaf types) make every Table 2 query answer
  identically.  Same-class pairs always alias and are counted
  combinatorially with no query at all; each cross-class pair costs one
  representative query (zero cases are skipped outright).

``engine='differential'`` runs both engines and asserts they agree — the
regression harness for the optimised path.
"""

from typing import Dict, List, Tuple

from repro.analysis.alias_base import AliasAnalysis
from repro.analysis.fieldtypedecl import FieldTypeDeclAnalysis
from repro.analysis.typedecl import TypeDeclAnalysis
from repro.ir.access_path import AccessPath, Deref, Qualify, Subscript, VarRoot, strip_index
from repro.ir.cfg import ProgramIR
from repro.obs import core as obs
from repro.obs import metrics
from repro.qa import guards
from repro.util.bits import iter_bits, popcount

#: Valid values for the ``engine`` argument of :class:`AliasPairCounter`.
ENGINES = ("reference", "fast", "differential")

#: Engine used when callers do not choose one.  The fast engine is the
#: default; the differential test suite pins it to the reference loop.
DEFAULT_ENGINE = "fast"


def collect_heap_references(program: ProgramIR) -> Dict[str, List[AccessPath]]:
    """Distinct source-level heap reference APs (canonical), per procedure."""
    refs: Dict[str, List[AccessPath]] = {}
    for proc in program.user_procs():
        seen = {}
        for instr in proc.all_instrs():
            if not (instr.is_heap_load or instr.is_heap_store):
                continue
            if instr.is_dope:
                continue  # implicit, not in the source
            ap = instr.ap
            assert ap is not None
            if _is_variable_access(ap):
                continue
            canonical = strip_index(ap)
            seen.setdefault(canonical, None)
        refs[proc.name] = list(seen)
    return refs


def _is_variable_access(ap: AccessPath) -> bool:
    """True for ``h^`` where h is a VAR param or WITH handle: the source
    wrote a plain variable name, not a heap reference."""
    if isinstance(ap, Deref) and isinstance(ap.base, VarRoot):
        return ap.base.is_handle
    return False


class AliasPairReport:
    """Counts for one (program, analysis) combination."""

    def __init__(self, analysis_name: str):
        self.analysis_name = analysis_name
        self.references = 0
        self.local_pairs = 0
        self.global_pairs = 0

    @property
    def local_per_reference(self) -> float:
        """Average number of intraprocedural references each reference may
        alias (the paper quotes 'on average 3.4 references')."""
        if self.references == 0:
            return 0.0
        return 2.0 * self.local_pairs / self.references

    @property
    def global_per_reference(self) -> float:
        if self.references == 0:
            return 0.0
        return 2.0 * self.global_pairs / self.references

    def counts(self) -> Tuple[int, int, int]:
        return (self.references, self.local_pairs, self.global_pairs)

    def __repr__(self) -> str:
        return "<AliasPairReport {}: refs={} L={} G={}>".format(
            self.analysis_name, self.references, self.local_pairs, self.global_pairs
        )


# ----------------------------------------------------------------------
# Fast-engine plumbing


class _RefGroup:
    """One distinct canonical reference AP with its procedure occupancy.

    Per-procedure references are deduplicated, so the multiplicity of the
    path is exactly the popcount of ``proc_mask`` and every same-path
    pair spans two different procedures.
    """

    __slots__ = ("ap", "proc_mask", "count")

    def __init__(self, ap: AccessPath):
        self.ap = ap
        self.proc_mask = 0
        self.count = 0


def _proc_counts(groups: List[_RefGroup]) -> Dict[int, int]:
    """procedure index -> number of groups occupying that procedure."""
    counts: Dict[int, int] = {}
    for g in groups:
        for p in iter_bits(g.proc_mask):
            counts[p] = counts.get(p, 0) + 1
    return counts


class _PairAccumulator:
    """Sums local/global pair contributions over groups and buckets."""

    def __init__(self) -> None:
        self.local = 0
        self.global_ = 0

    def add_pair(self, a: _RefGroup, b: _RefGroup) -> None:
        """All cross-procedure-or-not pairs between two distinct paths."""
        self.global_ += a.count * b.count
        self.local += popcount(a.proc_mask & b.proc_mask)

    def add_bucket_within(self, groups: List[_RefGroup]) -> None:
        """All pairs of *distinct* paths inside one all-alias bucket."""
        total = sum(g.count for g in groups)
        squares = sum(g.count * g.count for g in groups)
        self.global_ += (total * total - squares) // 2
        for c in _proc_counts(groups).values():
            self.local += c * (c - 1) // 2

    def add_bucket_cross(self, a: List[_RefGroup], b: List[_RefGroup]) -> None:
        """All pairs between two buckets whose cross product aliases."""
        self.global_ += sum(g.count for g in a) * sum(g.count for g in b)
        ca, cb = _proc_counts(a), _proc_counts(b)
        if len(cb) < len(ca):
            ca, cb = cb, ca
        self.local += sum(n * cb.get(p, 0) for p, n in ca.items())


class AliasPairCounter:
    """Computes Table 5's numbers for one program and one analysis.

    ``engine`` selects the counting path (see module docstring); both
    engines are exact and produce identical reports.
    """

    def __init__(
        self,
        program: ProgramIR,
        analysis: AliasAnalysis,
        engine: str = DEFAULT_ENGINE,
    ):
        if engine not in ENGINES:
            raise ValueError(
                "unknown engine {!r}; expected one of {}".format(engine, ENGINES)
            )
        self.program = program
        self.analysis = analysis
        self.engine = engine
        self.references = collect_heap_references(program)

    def count(self) -> AliasPairReport:
        with obs.span("aliaspairs.count", analysis=self.analysis.name,
                      engine=self.engine):
            return self._count()

    def _count(self) -> AliasPairReport:
        if self.engine == "reference":
            return self._count_reference()
        if self.engine == "fast":
            return self._count_fast()
        reference = self._count_reference()
        fast = self._count_fast()
        if reference.counts() != fast.counts():
            raise AssertionError(
                "alias-pair engines disagree for {}: reference={} fast={}"
                .format(self.analysis.name, reference, fast)
            )
        return fast

    # ------------------------------------------------------------------
    # Reference engine: one query per unordered reference pair.

    def _count_reference(self) -> AliasPairReport:
        report = AliasPairReport(self.analysis.name)
        flat: List[Tuple[str, AccessPath]] = []
        for proc_name, aps in self.references.items():
            flat.extend((proc_name, ap) for ap in aps)
        report.references = len(flat)

        may_alias = self.analysis.may_alias_canonical
        for i in range(len(flat)):
            if (i & 127) == 0:
                guards.check_active()  # O(e²) loop: poll per outer row
            proc_i, ap_i = flat[i]
            for j in range(i + 1, len(flat)):
                proc_j, ap_j = flat[j]
                if may_alias(ap_i, ap_j):
                    report.global_pairs += 1
                    if proc_i == proc_j:
                        report.local_pairs += 1
        return report

    # ------------------------------------------------------------------
    # Fast engine: dedupe + bucket, query only the residue.

    def _count_fast(self) -> AliasPairReport:
        report = AliasPairReport(self.analysis.name)
        groups: Dict[AccessPath, _RefGroup] = {}
        for proc_index, aps in enumerate(self.references.values()):
            for ap in aps:
                g = groups.get(ap)
                if g is None:
                    g = groups[ap] = _RefGroup(ap)
                g.proc_mask |= 1 << proc_index
        distinct = list(groups.values())
        for g in distinct:
            g.count = popcount(g.proc_mask)
        report.references = sum(g.count for g in distinct)

        acc = _PairAccumulator()
        may_alias = self.analysis.may_alias_canonical

        # Same-path pairs: per-procedure dedup means each such pair spans
        # two procedures (never local).  Table 2's case 1 (and TypeDecl's
        # ``Subtypes(T) ∩ Subtypes(T) ≠ ∅``) makes these reflexively true
        # for the structured analyses; other analyses get one query per
        # distinct path.
        analysis = self.analysis
        structured = isinstance(analysis, (FieldTypeDeclAnalysis, TypeDeclAnalysis))
        for g in distinct:
            if g.count > 1 and (structured or may_alias(g.ap, g.ap)):
                acc.global_ += g.count * (g.count - 1) // 2

        if isinstance(analysis, FieldTypeDeclAnalysis):
            n_classes = self._pairs_fieldtypedecl(distinct, analysis, acc)
        elif isinstance(analysis, TypeDeclAnalysis):
            n_classes = self._pairs_by_type(distinct, acc)
        else:
            n_classes = len(distinct)
            self._pairs_generic(distinct, acc)

        self._record_fast_metrics(report.references, len(distinct), n_classes)
        report.local_pairs = acc.local
        report.global_pairs = acc.global_
        return report

    def _record_fast_metrics(self, references: int, distinct: int,
                             n_classes: int) -> None:
        """Partition statistics of one fast-engine count (one child per
        count, so the series sums across programs and analyses)."""
        registry = metrics.registry()
        name = self.analysis.name
        registry.new_counter("aliaspairs.fast.references", analysis=name).inc(
            references)
        registry.new_counter("aliaspairs.fast.distinct_paths",
                             analysis=name).inc(distinct)
        registry.new_counter("aliaspairs.fast.classes", analysis=name).inc(
            n_classes)

    def _pairs_generic(self, distinct: List[_RefGroup], acc: _PairAccumulator) -> None:
        """No structural knowledge: pairwise over distinct paths only."""
        may_alias = self.analysis.may_alias_canonical
        for i, a in enumerate(distinct):
            if (i & 127) == 0:
                guards.check_active()
            for b in distinct[i + 1:]:
                if may_alias(a.ap, b.ap):
                    acc.add_pair(a, b)

    def _pairs_by_type(self, distinct: List[_RefGroup], acc: _PairAccumulator) -> int:
        """TypeDecl ignores structure: the answer is a function of the two
        declared types, so one query per *type pair* decides whole buckets."""
        may_alias = self.analysis.may_alias_canonical
        buckets = _bucket_by(distinct, lambda g: id(g.ap.type))
        reps = list(buckets.values())
        for i, a in enumerate(reps):
            acc.add_bucket_within(a)  # Subtypes(T) ∩ Subtypes(T) ≠ ∅ always
            for b in reps[i + 1:]:
                if may_alias(a[0].ap, b[0].ap):
                    acc.add_bucket_cross(a, b)
        return len(reps)

    def _pairs_fieldtypedecl(
        self,
        distinct: List[_RefGroup],
        analysis: FieldTypeDeclAnalysis,
        acc: _PairAccumulator,
    ) -> int:
        """Partition the references into Table 2 *query-equivalence
        classes* and count class pairs combinatorially.

        The signature of a canonical path captures exactly the facts the
        seven cases dispatch on — constructor kind, field name, the
        AddressTaken bit, the leaf type identity, and (recursively) the
        base's signature.  Two same-signature paths therefore answer
        every query identically, and a short induction over Table 2 shows
        they always alias *each other* (the base case is the oracle's
        reflexivity, ``Subtypes(T) ∩ Subtypes(T) ≠ ∅``).  So one
        representative query decides each class pair wholesale, and
        same-class pairs need no query at all; the zero cases (2 with
        differing fields, 5) are skipped without even the representative
        query."""
        may_alias = analysis.may_alias_canonical
        address_taken = analysis.address_taken
        sigs: Dict[int, tuple] = {}

        def sig(ap: AccessPath) -> tuple:
            s = sigs.get(ap.uid)
            if s is None:
                if isinstance(ap, Qualify):
                    taken = address_taken.qualify_taken(
                        ap.field, ap.base.type, ap.type
                    )
                    s = ("q", ap.field, taken, id(ap.type), sig(ap.base))
                elif isinstance(ap, Subscript):
                    taken = address_taken.subscript_taken(ap.base.type, ap.type)
                    s = ("s", taken, id(ap.type), sig(ap.base))
                elif isinstance(ap, Deref):
                    s = ("d", id(ap.type))
                else:  # VarRoot / FreshRoot: case 7, a pure type function
                    s = ("r", id(ap.type))
                sigs[ap.uid] = s
            return s

        classes = _bucket_by(distinct, lambda g: sig(g.ap))
        keyed = list(classes.items())
        for i, (sig_a, a) in enumerate(keyed):
            acc.add_bucket_within(a)  # same signature: always aliases
            for sig_b, b in keyed[i + 1:]:
                if sig_a[0] == "q":
                    if sig_b[0] == "s":
                        continue  # case 5: qualify vs subscript
                    if sig_b[0] == "q" and sig_a[1] != sig_b[1]:
                        continue  # case 2: different fields
                elif sig_a[0] == "s" and sig_b[0] == "q":
                    continue  # case 5, other order
                if may_alias(a[0].ap, b[0].ap):
                    acc.add_bucket_cross(a, b)
        return len(keyed)


def _bucket_by(groups: List[_RefGroup], key) -> Dict[object, List[_RefGroup]]:
    out: Dict[object, List[_RefGroup]] = {}
    for g in groups:
        out.setdefault(key(g), []).append(g)
    return out
