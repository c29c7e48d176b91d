"""Ablation (beyond the paper) — letting RLE see dope-vector loads.

The paper's Figure 10 blames most residual redundancy on 'Encapsulation':
implicit dope-vector loads its AST-level optimizer cannot express.  Our
IR *can* expose them, so we can measure what a lower-level RLE would buy —
quantifying the cost of the paper's representation choice.
"""

from repro.bench import tables
from repro.bench.suite import RunConfig
from repro.runtime.limit import Category
from repro.util.tables import render_table


def test_dope_ablation(benchmark, suite, emit):
    config = RunConfig(analysis="SMFieldTypeRefs", see_dope_loads=True)

    def build_ablated():
        return suite.program("k-tree").pipeline.build(
            analysis="SMFieldTypeRefs", see_dope_loads=True
        )

    result = benchmark.pedantic(build_ablated, rounds=3, iterations=1)
    assert result.rle is not None

    names = ["format", "dformat", "k-tree", "m2tom3", "m3cg"]
    normal = tables.figure10(suite, names)
    ablated = tables.figure10(suite, names, see_dope_loads=True)
    enc = normal.headers.index(Category.ENCAPSULATION.value)

    rows = []
    for n_row, a_row in zip(normal.rows, ablated.rows):
        speed_n = tables.relative_time(
            suite, n_row[0], RunConfig(analysis="SMFieldTypeRefs"))
        speed_a = tables.relative_time(
            suite, n_row[0], RunConfig(analysis="SMFieldTypeRefs", see_dope_loads=True)
        )
        rows.append(
            [
                n_row[0],
                n_row[enc],
                a_row[enc],
                round(100 * speed_n, 1),
                round(100 * speed_a, 1),
            ]
        )
    text = render_table(
        ["Program", "Encaps (AST RLE)", "Encaps (low-level RLE)",
         "% time (AST RLE)", "% time (low-level RLE)"],
        rows,
        title="Ablation: exposing dope-vector loads to RLE",
    )
    emit("ablation_dope", text)

    # Exposing dope loads must shrink Encapsulation and never slow us down.
    for row in rows:
        assert row[2] <= row[1]
        assert row[4] <= row[3] + 0.2
    assert any(row[2] < row[1] for row in rows)
