"""Static alias-pair metric tests (Table 5)."""

from repro.analysis import AliasPairCounter, collect_heap_references, make_analysis
from repro.ir.lowering import lower_module
from repro.lang import check_module, parse_module


SOURCE = """
MODULE M;
TYPE
  T = OBJECT f, g: T; END;
  S = T OBJECT a: INTEGER; END;
VAR t: T; s: S; x: INTEGER;

PROCEDURE P1 () =
BEGIN
  t.f := t.g;
END P1;

PROCEDURE P2 () =
BEGIN
  s.f := NIL;
  x := s.a;
END P2;

BEGIN
  P1 ();
  P2 ();
END M.
"""


def build():
    checked = check_module(parse_module(SOURCE))
    program = lower_module(checked)
    return checked, program


def test_reference_collection_dedupes_per_proc():
    checked, program = build()
    refs = collect_heap_references(program)
    assert {str(ap) for ap in refs["P1"]} == {"t.f", "t.g"}
    assert {str(ap) for ap in refs["P2"]} == {"s.f", "s.a"}
    assert refs["<main>"] == []


def test_dope_loads_not_counted_as_references():
    source = """
    MODULE M;
    TYPE B = REF ARRAY OF CHAR;
    VAR b: B; c: CHAR;
    BEGIN c := b^[0]; END M.
    """
    program = lower_module(check_module(parse_module(source)))
    refs = collect_heap_references(program)
    assert {str(ap) for ap in refs["<main>"]} == {"b^[0]"}


def test_var_param_access_not_a_reference():
    source = """
    MODULE M;
    VAR x: INTEGER;
    PROCEDURE P (VAR v: INTEGER) = BEGIN v := v + 1; END P;
    BEGIN P (x); END M.
    """
    program = lower_module(check_module(parse_module(source)))
    refs = collect_heap_references(program)
    assert refs["P"] == []


def test_local_vs_global_pairs():
    checked, program = build()
    analysis = make_analysis(checked, "TypeDecl")
    report = AliasPairCounter(program, analysis).count()
    assert report.references == 4
    # TypeDecl: all four T-typed refs alias each other except the INTEGER
    # field s.a, which only matches itself.
    # within P1: (t.f, t.g) -> 1 local pair
    # within P2: s.f vs s.a -> no (INTEGER vs T)
    assert report.local_pairs == 1
    # across procs additionally: t.f~s.f, t.f~s.... all T-typed pairs:
    # {t.f, t.g, s.f} -> 3 pairs total, 1 of them local
    assert report.global_pairs == 3


def test_fieldtypedecl_refines():
    checked, program = build()
    td = AliasPairCounter(program, make_analysis(checked, "TypeDecl")).count()
    ftd = AliasPairCounter(program, make_analysis(checked, "FieldTypeDecl")).count()
    # t.f vs t.g distinguished by field name now
    assert ftd.local_pairs == 0
    assert ftd.global_pairs <= td.global_pairs
    assert ftd.global_pairs == 1  # only t.f ~ s.f


def test_per_reference_averages():
    checked, program = build()
    report = AliasPairCounter(program, make_analysis(checked, "TypeDecl")).count()
    assert report.local_per_reference == 2 * 1 / 4
    assert report.global_per_reference == 2 * 3 / 4


def test_cache_stats_and_clear():
    checked, program = build()
    analysis = make_analysis(checked, "FieldTypeDecl")
    stats = analysis.cache_stats()
    assert stats == {"hits": 0, "misses": 0, "size": 0}

    AliasPairCounter(program, analysis, engine="reference").count()
    stats = analysis.cache_stats()
    assert stats["misses"] == stats["size"] > 0

    # A repeated query is a pure cache hit.
    hits_before = stats["hits"]
    refs = [ap for aps in collect_heap_references(program).values() for ap in aps]
    analysis.may_alias(refs[0], refs[1])
    assert analysis.cache_stats()["hits"] == hits_before + 1

    analysis.cache_clear()
    assert analysis.cache_stats() == {"hits": 0, "misses": 0, "size": 0}


def test_cache_clear_never_lowers_a_registry_counter():
    from repro.obs import metrics

    checked, program = build()
    analysis = make_analysis(checked, "FieldTypeDecl")
    AliasPairCounter(program, analysis, engine="reference").count()
    refs = [ap for aps in collect_heap_references(program).values() for ap in aps]
    analysis.may_alias(refs[0], refs[1])  # one cache hit
    registry = metrics.registry()

    def counters():
        return {(e["name"], tuple(sorted(e["labels"].items()))): e["value"]
                for e in registry.snapshot() if e["kind"] == "counter"}

    before = counters()
    analysis.cache_clear()
    after = counters()
    assert analysis.cache_stats() == {"hits": 0, "misses": 0, "size": 0}
    assert [key for key, value in before.items() if after[key] < value] == []
    # The shared totals keep counting after the clear.
    hits = registry.counter("alias.cache.hits", analysis="FieldTypeDecl")
    total = hits.value
    analysis.may_alias(refs[0], refs[1])  # a miss again: the cache is empty
    analysis.may_alias(refs[0], refs[1])
    assert hits.value == total + 1
    assert analysis.cache_stats()["hits"] == 1


def test_engines_agree_and_fast_queries_less():
    checked, program = build()
    reference = make_analysis(checked, "FieldTypeDecl")
    fast = make_analysis(checked, "FieldTypeDecl")
    ref_report = AliasPairCounter(program, reference, engine="reference").count()
    fast_report = AliasPairCounter(program, fast, engine="fast").count()
    assert ref_report.counts() == fast_report.counts()
    ref_stats, fast_stats = reference.cache_stats(), fast.cache_stats()
    ref_queries = ref_stats["hits"] + ref_stats["misses"]
    fast_queries = fast_stats["hits"] + fast_stats["misses"]
    assert fast_queries < ref_queries


def test_program_counts_walk_the_lowered_ir_once():
    from repro import compile_program

    program = compile_program(SOURCE, "M")
    ir = program.lowered()
    walks = []
    user_procs = ir.user_procs

    def counted():
        walks.append(1)
        return user_procs()

    ir.user_procs = counted
    reports = [program.alias_pairs(name)
               for name in ("TypeDecl", "FieldTypeDecl", "SMFieldTypeRefs")]
    assert len(walks) == 1
    expected = collect_heap_references(lower_module(program.checked))
    assert program.heap_references() == expected
    assert [r.references for r in reports] == [4, 4, 4]
