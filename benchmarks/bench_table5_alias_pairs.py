"""Table 5 — Alias Pairs.

Regenerates the static alias-pair counts for all three analyses over the
whole suite, and benchmarks the O(e²) pair enumeration (the paper's
Section 2.5 cost discussion) on the largest benchmark.
"""

from repro.bench import tables


def test_table5(benchmark, suite, emit):
    program = suite.program("m3cg")

    def count_pairs():
        return program.alias_pairs("SMFieldTypeRefs")

    report = benchmark.pedantic(count_pairs, rounds=3, iterations=1)
    assert report.references > 0

    # The reference engine must agree with the timed fast engine.
    reference = program.alias_pairs("SMFieldTypeRefs", engine="reference")
    assert reference.counts() == report.counts()

    table = tables.table5(suite)
    emit("table5", table.text)
    summary = tables.table5_summary(suite)
    emit("table5_summary", summary.text)
    # The paper's ordering of the per-reference averages.
    local = summary.column("Local per ref")
    global_ = summary.column("Global per ref")
    assert local[2] <= local[1] < local[0]
    assert global_[2] <= global_[1] < global_[0]

    # Paper shapes: TypeDecl is much worse; SMFieldTypeRefs ≈ FieldTypeDecl;
    # global pairs exceed local pairs.
    td_l = sum(row[2] for row in table.rows)
    ftd_l = sum(row[4] for row in table.rows)
    smftr_l = sum(row[6] for row in table.rows)
    assert smftr_l <= ftd_l < td_l
    for row in table.rows:
        assert row[3] >= row[2] and row[5] >= row[4] and row[7] >= row[6]
