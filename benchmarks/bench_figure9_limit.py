"""Figure 9 — Comparing TBAA to an Upper Bound.

Regenerates the dynamic redundant-load fractions before and after RLE
(the ATOM-style limit study) and benchmarks one traced run.
"""

from repro.bench import tables
from repro.bench.suite import BASE
from repro.runtime import Interpreter, LoadStoreTracer, classify


def test_figure9(benchmark, suite, emit):
    result = suite.build("write-pickle", BASE)

    def traced_run():
        tracer = LoadStoreTracer()
        Interpreter(result.program, tracer=tracer).run()
        return classify(tracer, result.load_status)

    report = benchmark.pedantic(traced_run, rounds=3, iterations=1)
    assert report.total_heap_loads > 0

    table = tables.figure9(suite)
    emit("figure9", table.text)

    # Paper shapes: RLE removes a substantial part of the dynamic
    # redundancy on every benchmark; several programs end up with little
    # or none, while array-heavy ones (k-tree analogue) retain more.
    removed_something = 0
    for row in table.rows:
        before, after = row[1], row[2]
        assert after <= before
        if before > 0 and (before - after) / before >= 0.2:
            removed_something += 1
    assert removed_something >= len(table.rows) // 2
