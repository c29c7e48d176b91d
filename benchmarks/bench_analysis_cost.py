"""Analysis cost (Section 2.5) — TBAA is fast.

The paper's complexity argument: SMTypeRefs makes a single linear pass
over the program unioning type sets, so building an analysis is cheap;
computing all may-alias pairs is O(e²) but each query is cheap.  This
bench times both on the largest benchmark, m3cg: building the three
analyses from a fresh :class:`AnalysisContext` (its per-program facts
included), and a cold all-pairs ``may_alias`` sweep over every heap
reference of the unoptimized program.
"""

import time

from repro.analysis import ANALYSIS_NAMES, collect_heap_references
from repro.analysis.openworld import AnalysisContext
from repro.util.tables import render_table


def test_analysis_construction(benchmark, suite):
    program = suite.program("m3cg")

    def build_all_three():
        context = AnalysisContext(program.checked)
        return [context.build(name) for name in ANALYSIS_NAMES]

    analyses = benchmark.pedantic(build_all_three, rounds=5, iterations=1)
    assert len(analyses) == len(ANALYSIS_NAMES)


def test_all_pairs_query_sweep(benchmark, suite, emit):
    refs = [ap for aps in collect_heap_references(
                suite.program("m3cg").lowered()).values()
            for ap in aps]
    context = AnalysisContext(suite.program("m3cg").checked)
    analyses = [context.build(name) for name in ANALYSIS_NAMES]

    def sweep(analysis) -> int:
        """One cold sweep over every reference pair; the may-alias count."""
        analysis.cache_clear()
        may_alias = analysis.may_alias
        return sum(may_alias(p, q)
                   for i, p in enumerate(refs) for q in refs[i + 1:])

    benchmark.pedantic(lambda: [sweep(a) for a in analyses],
                       rounds=3, iterations=1)

    queries = len(refs) * (len(refs) - 1) // 2
    rows = []
    for analysis in analyses:
        started = time.perf_counter()
        aliased = sweep(analysis)
        ms = (time.perf_counter() - started) * 1000.0
        cache = analysis.cache_stats()
        assert cache["misses"] == cache["size"] > 0
        rows.append([analysis.name, queries, aliased, round(ms, 2),
                     round(queries / ms, 1), cache["hits"], cache["misses"]])
    emit("analysis_cost", render_table(
        ["Analysis", "Pairs", "May alias", "ms", "kq/s", "Cache hits",
         "Cache misses"],
        rows, title="May-alias query cost on m3cg (all reference pairs)"))
    # A stronger analysis never answers "may alias" more often.
    aliased = [row[2] for row in rows]
    assert aliased[0] >= aliased[1] >= aliased[2]
