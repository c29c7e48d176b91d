"""Generators for every table and figure in the paper's evaluation.

Each function takes a (shared) :class:`~repro.bench.suite.BenchmarkSuite`
and returns a :class:`TableResult` whose ``rows`` are plain data and
whose ``text`` is an aligned text rendering.  The benchmark files under
``benchmarks/`` print these and assert the paper's qualitative shapes.

Generators reach programs only through the suite's accessors, never the
registry, so every table also works over a directory suite
(:meth:`~repro.bench.suite.BenchmarkSuite.from_directory` — the
``repro tables --programs DIR`` path).
"""

from typing import Dict, List, Optional, Sequence

from repro.analysis import ANALYSIS_NAMES, AliasPairCounter
from repro.analysis.alias_pairs import DEFAULT_ENGINE
from repro.bench.suite import BASE, BenchmarkSuite, RunConfig
from repro.runtime import ExecutionStats
from repro.runtime.limit import Category
from repro.util.tables import render_table

#: The configs Figures 9 and 10 study: before and after RLE.  Whichever
#: generator executes one of them first asks for it traced, so the limit
#: study classifies the execution Table 4 and Figure 8 use.
LIMIT_CONFIGS = (BASE, RunConfig(analysis="SMFieldTypeRefs"))
_TRACED = {config.key() for config in LIMIT_CONFIGS}


class TableResult:
    """A regenerated table/figure: data rows plus a text rendering."""

    def __init__(self, title: str, headers: Sequence[str], rows: List[List[object]]):
        self.title = title
        self.headers = list(headers)
        self.rows = rows

    @property
    def text(self) -> str:
        return render_table(self.headers, self.rows, title=self.title)

    def column(self, header: str) -> List[object]:
        index = self.headers.index(header)
        return [row[index] for row in self.rows]

    def row(self, name: str) -> List[object]:
        for row in self.rows:
            if row[0] == name:
                return row
        raise KeyError(name)

    def __repr__(self) -> str:
        return "<TableResult {!r} ({} rows)>".format(self.title, len(self.rows))


def _pct(x: float) -> str:
    return "{:.0f}".format(100.0 * x)


def _stats(suite: BenchmarkSuite, name: str, config: RunConfig) -> ExecutionStats:
    if config.key() in _TRACED:
        suite.limit_study(name, config)
    return suite.run(name, config)


def relative_time(suite: BenchmarkSuite, name: str, config: RunConfig) -> float:
    """Simulated time of *config* relative to base (1.0 = no change)."""
    base_cycles = _stats(suite, name, BASE).cycles
    opt_cycles = _stats(suite, name, config).cycles
    return opt_cycles / base_cycles if base_cycles else 1.0


def count_source_lines(source: str) -> int:
    """Non-comment, non-blank source lines (Table 4's "Lines")."""
    out_lines = 0
    depth = 0
    for line in source.splitlines():
        stripped = []
        i = 0
        while i < len(line):
            two = line[i : i + 2]
            if two == "(*":
                depth += 1
                i += 2
            elif two == "*)" and depth > 0:
                depth -= 1
                i += 2
            elif depth == 0:
                stripped.append(line[i])
                i += 1
            else:
                i += 1
        if "".join(stripped).strip():
            out_lines += 1
    return out_lines


# ----------------------------------------------------------------------
# Table 4: benchmark descriptions


def table4(suite: BenchmarkSuite, names: Optional[List[str]] = None) -> TableResult:
    """Lines, instructions executed, % heap loads, % other loads."""
    rows: List[List[object]] = []
    for name in names or suite.names():
        source = suite.load_source(name)
        lines = count_source_lines(source)
        if suite.is_dynamic(name):
            stats = _stats(suite, name, BASE)
            rows.append(
                [
                    name,
                    lines,
                    stats.instructions,
                    _pct(stats.heap_load_fraction),
                    _pct(stats.other_load_fraction),
                    suite.description(name),
                ]
            )
        else:
            rows.append([name, lines, "-", "-", "-", suite.description(name)])
    return TableResult(
        "Table 4: Description of Benchmark Programs",
        ["Name", "Lines", "Instructions", "% Heap loads", "% Other loads", "Description"],
        rows,
    )


# ----------------------------------------------------------------------
# Table 5: alias pairs


def table5(
    suite: BenchmarkSuite,
    names: Optional[List[str]] = None,
    engine: str = DEFAULT_ENGINE,
) -> TableResult:
    """References and local/global alias pairs for the three analyses."""
    rows: List[List[object]] = []
    for name in names or suite.names():
        program = suite.program(name)
        base = suite.build(name, BASE)
        row: List[object] = [name]
        references = None
        for analysis_name in ANALYSIS_NAMES:
            analysis = program.analysis(analysis_name)
            report = AliasPairCounter(base.program, analysis, engine=engine).count()
            references = report.references
            row.extend([report.local_pairs, report.global_pairs])
        row.insert(1, references)
        rows.append(row)
    return TableResult(
        "Table 5: Alias Pairs",
        [
            "Program",
            "References",
            "TD L Alias",
            "TD G Alias",
            "FTD L Alias",
            "FTD G Alias",
            "SMFTR L Alias",
            "SMFTR G Alias",
        ],
        rows,
    )


def table5_summary(
    suite: BenchmarkSuite,
    names: Optional[List[str]] = None,
    engine: str = DEFAULT_ENGINE,
) -> TableResult:
    """The paper's Section 3.3 averages: how many other references each
    heap reference may alias, intra- and inter-procedurally.

    (The paper: 4.7 / 3.4 / 3.4 local and 54.1 / 12.7 / 12.7 global for
    TypeDecl / FieldTypeDecl / SMFieldTypeRefs.)
    """
    totals = {name: [0, 0, 0] for name in ("refs", "local", "global")}
    locals_by = {a: 0 for a in ANALYSIS_NAMES}
    globals_by = {a: 0 for a in ANALYSIS_NAMES}
    references = 0
    for name in names or suite.names():
        program = suite.program(name)
        base = suite.build(name, BASE)
        counted_refs = None
        for analysis_name in ANALYSIS_NAMES:
            report = AliasPairCounter(
                base.program, program.analysis(analysis_name), engine=engine
            ).count()
            locals_by[analysis_name] += report.local_pairs
            globals_by[analysis_name] += report.global_pairs
            counted_refs = report.references
        references += counted_refs or 0
    rows = []
    for analysis_name in ANALYSIS_NAMES:
        rows.append(
            [
                analysis_name,
                round(2.0 * locals_by[analysis_name] / references, 2),
                round(2.0 * globals_by[analysis_name] / references, 2),
            ]
        )
    return TableResult(
        "Average may-alias partners per heap reference (Section 3.3 style)",
        ["Analysis", "Local per ref", "Global per ref"],
        rows,
    )


# ----------------------------------------------------------------------
# Table 6: redundant loads removed statically


def table6(suite: BenchmarkSuite, names: Optional[List[str]] = None) -> TableResult:
    rows: List[List[object]] = []
    for name in names or suite.dynamic_names():
        row: List[object] = [name]
        for analysis_name in ANALYSIS_NAMES:
            result = suite.build(name, RunConfig(analysis=analysis_name))
            assert result.rle is not None
            row.append(result.rle.eliminated_loads)
        rows.append(row)
    return TableResult(
        "Table 6: Number of Redundant Loads Removed Statically",
        ["Program", "TypeDecl", "FieldTypeDecl", "SMFieldTypeRefs"],
        rows,
    )


# ----------------------------------------------------------------------
# Figure 8: simulated execution time impact of RLE


def figure8(suite: BenchmarkSuite, names: Optional[List[str]] = None) -> TableResult:
    """Percent of original running time under RLE per TBAA level."""
    rows: List[List[object]] = []
    for name in names or suite.dynamic_names():
        row: List[object] = [name, 100]
        for analysis_name in ANALYSIS_NAMES:
            rel = relative_time(suite, name, RunConfig(analysis=analysis_name))
            row.append(round(100.0 * rel, 1))
        rows.append(row)
    return TableResult(
        "Figure 8: Impact of RLE (percent of original running time)",
        ["Program", "Base", "Types only", "Types and fields", "Types, fields, and merges"],
        rows,
    )


# ----------------------------------------------------------------------
# Figure 9: dynamic redundancy before/after RLE


def figure9(suite: BenchmarkSuite, names: Optional[List[str]] = None) -> TableResult:
    rows: List[List[object]] = []
    for name in names or suite.dynamic_names():
        before, after = (suite.limit_study(name, c) for c in LIMIT_CONFIGS)
        rows.append(
            [
                name,
                round(before.redundant_fraction, 3),
                round(after.redundant_fraction, 3),
            ]
        )
    return TableResult(
        "Figure 9: Comparing TBAA to an Upper Bound "
        "(fraction of heap references that are redundant)",
        ["Program", "Redundant originally", "Redundant after optimizations"],
        rows,
    )


# ----------------------------------------------------------------------
# Figure 10: where the residue comes from


def figure10(
    suite: BenchmarkSuite,
    names: Optional[List[str]] = None,
    see_dope_loads: bool = False,
) -> TableResult:
    """Five-way classification of post-RLE redundant loads.

    ``see_dope_loads=True`` runs the ablation where RLE can eliminate
    dope-vector loads (beyond the paper, which could not)."""
    rows: List[List[object]] = []
    config = RunConfig(analysis=LIMIT_CONFIGS[1].analysis, see_dope_loads=see_dope_loads)
    for name in names or suite.dynamic_names():
        report = suite.limit_study(name, config)
        rows.append(
            [name]
            + [round(report.category_fraction(c), 4) for c in Category]
            + [round(report.redundant_fraction, 4)]
        )
    return TableResult(
        "Figure 10: Source of Redundant Loads after Optimizations "
        "(fraction of heap references)",
        ["Program"] + [c.value for c in Category] + ["Total"],
        rows,
    )


# ----------------------------------------------------------------------
# Figure 11: cumulative impact of RLE, Minv+Inlining


def figure11(suite: BenchmarkSuite, names: Optional[List[str]] = None) -> TableResult:
    rows: List[List[object]] = []
    rle = RunConfig(analysis="SMFieldTypeRefs")
    minv = RunConfig(minv_inline=True)
    both = RunConfig(analysis="SMFieldTypeRefs", minv_inline=True)
    for name in names or suite.dynamic_names():
        rows.append(
            [
                name,
                100,
                round(100.0 * relative_time(suite, name, rle), 1),
                round(100.0 * relative_time(suite, name, minv), 1),
                round(100.0 * relative_time(suite, name, both), 1),
            ]
        )
    return TableResult(
        "Figure 11: Cumulative Impact of Optimizations "
        "(percent of original running time)",
        ["Program", "Base", "RLE", "Minv+Inlining", "RLE+Minv+Inlining"],
        rows,
    )


# ----------------------------------------------------------------------
# Figure 12: open vs closed world


def figure12(suite: BenchmarkSuite, names: Optional[List[str]] = None) -> TableResult:
    rows: List[List[object]] = []
    closed = RunConfig(analysis="SMFieldTypeRefs")
    opened = RunConfig(analysis="SMFieldTypeRefs", open_world=True)
    for name in names or suite.dynamic_names():
        rows.append(
            [
                name,
                round(100.0 * relative_time(suite, name, closed), 1),
                round(100.0 * relative_time(suite, name, opened), 1),
            ]
        )
    return TableResult(
        "Figure 12: Open and Closed World Assumptions "
        "(percent of original running time)",
        ["Program", "RLE", "RLE Open"],
        rows,
    )


# ----------------------------------------------------------------------
# Extension: static alias pairs, open vs closed (Section 4's remark)


def open_world_pairs(
    suite: BenchmarkSuite,
    names: Optional[List[str]] = None,
    engine: str = DEFAULT_ENGINE,
) -> TableResult:
    """Global alias pairs, closed vs open world, SMFieldTypeRefs."""
    rows: List[List[object]] = []
    for name in names or suite.names():
        program = suite.program(name)
        base = suite.build(name, BASE)
        closed = AliasPairCounter(
            base.program, program.analysis("SMFieldTypeRefs"), engine=engine
        ).count()
        opened = AliasPairCounter(
            base.program,
            program.analysis("SMFieldTypeRefs", open_world=True),
            engine=engine,
        ).count()
        rows.append([name, closed.global_pairs, opened.global_pairs])
    return TableResult(
        "Open-world effect on global alias pairs (SMFieldTypeRefs)",
        ["Program", "Closed G Alias", "Open G Alias"],
        rows,
    )
