"""Ablation (beyond the paper) — copy propagation.

Figure 10's 'Breakup' category and the Figure 11 analysis both trace back
to the paper's missing copy propagation ("our optimizer does not do copy
propagation"; "inlining exposes more redundant expressions but they are
usually conditional").  With `repro.opt.copyprop` in the pipeline, the
parameter-binding copies introduced by inlining become transparent to
RLE, so RLE+Minv+Inlining+CopyProp eliminates loads the paper's pipeline
could not.
"""

from repro.bench.suite import RunConfig
from repro.bench.tables import relative_time
from repro.util.tables import render_table

NAMES = ["format", "dformat", "k-tree", "slisp", "pp", "m2tom3", "m3cg"]

WITHOUT = RunConfig(analysis="SMFieldTypeRefs", minv_inline=True)
WITH_CP = RunConfig(analysis="SMFieldTypeRefs", minv_inline=True, copyprop=True)


def test_copyprop_ablation(benchmark, suite, emit):
    program = suite.program("pp")

    def build_with_copyprop():
        return program.pipeline.build(
            analysis="SMFieldTypeRefs", minv_inline=True, copyprop=True
        )

    result = benchmark.pedantic(build_with_copyprop, rounds=3, iterations=1)
    assert result.copyprop is not None and result.copyprop.facts_created > 0

    rows = []
    for name in NAMES:
        plain = suite.run(name, WITHOUT)
        cp = suite.run(name, WITH_CP)
        base = suite.run(name)
        assert cp.output_text() == base.output_text()
        rows.append(
            [
                name,
                plain.heap_loads,
                cp.heap_loads,
                round(100.0 * relative_time(suite, name, WITHOUT), 1),
                round(100.0 * relative_time(suite, name, WITH_CP), 1),
            ]
        )
    text = render_table(
        ["Program", "heap loads (no CP)", "heap loads (+CP)",
         "% time (no CP)", "% time (+CP)"],
        rows,
        title="Ablation: copy propagation under RLE+Minv+Inlining",
    )
    emit("ablation_copyprop", text)

    # Copy propagation must never add loads, and must pay somewhere.
    for row in rows:
        assert row[2] <= row[1]
    assert any(row[2] < row[1] for row in rows)
