"""Figure 10 — Source of Redundant Loads after Optimizations.

Regenerates the five-way classification (Encapsulation / Conditional /
Breakup / Alias failure / Rest) of the post-RLE redundancy and benchmarks
the classifying traced run.
"""

from repro.bench import tables
from repro.bench.suite import RunConfig
from repro.runtime import Interpreter, LoadStoreTracer, classify
from repro.runtime.limit import Category


def test_figure10(benchmark, suite, emit):
    config = RunConfig(analysis="SMFieldTypeRefs")
    result = suite.build("k-tree", config)

    def classified_run():
        tracer = LoadStoreTracer()
        Interpreter(result.program, tracer=tracer).run()
        return classify(tracer, result.load_status)

    report = benchmark.pedantic(classified_run, rounds=3, iterations=1)
    assert report.total_heap_loads > 0

    table = tables.figure10(suite)
    emit("figure10", table.text)

    enc = table.headers.index(Category.ENCAPSULATION.value)
    fail = table.headers.index(Category.ALIAS_FAILURE.value)
    rest = table.headers.index(Category.REST.value)

    # Paper's headline claims:
    # 1. Encapsulation (dope vectors) is the dominant residue.
    # 2. Alias failures are (almost) nonexistent — TBAA is near-optimal
    #    for RLE; 'Rest' is small (paper: <= 2.5% on average).
    total_residue = sum(row[-1] for row in table.rows)
    total_enc = sum(row[enc] for row in table.rows)
    if total_residue > 0.05:
        assert total_enc >= 0.5 * total_residue
    mean_fail = sum(row[fail] for row in table.rows) / len(table.rows)
    mean_rest = sum(row[rest] for row in table.rows) / len(table.rows)
    assert mean_fail <= 0.025
    assert mean_rest <= 0.025
