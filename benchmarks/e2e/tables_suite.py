"""``tables_suite``: a cold process regenerates the paper's artifacts.

Tables 4-6 and Figures 8-12 over the 10 bundled programs, through
:class:`~repro.bench.suite.BenchmarkSuite` and ``repro.bench.tables``.
One op is a pass: every artifact row of every program, each program
in a fresh (cold) suite, in registry order.  That is the job a user of
``repro tables`` waits for; percentiles over its ten programs would
only rank programs of very different sizes.  The input set is fixed,
so the seed is unused: a seeded order would only move the peak memory
and the collector's timing from run to run.  Rows are checked cell by
cell against the pinned goldens under ``golden/``; after each full pass
the reassembled artifacts must equal them byte for byte.
"""

import re
import subprocess
import sys
import time
from collections import Counter
from typing import Dict, List, Tuple

from common import GOLDEN_DIR, Run, child_env, layer_ms, median_setup, peak_rss_mb
from repro import obs
from repro.bench import registry, tables
from repro.bench.suite import BenchmarkSuite
from repro.obs.core import trace_scope

#: Artifact -> generator, in ``repro tables`` order.
ARTIFACTS = {
    "table4": tables.table4,
    "table5": tables.table5,
    "table6": tables.table6,
    "figure8": tables.figure8,
    "figure9": tables.figure9,
    "figure10": tables.figure10,
    "figure11": tables.figure11,
    "figure12": tables.figure12,
}

#: Artifacts with a row for every program; the rest cover dynamic ones.
ALL_PROGRAM_ARTIFACTS = ("table4", "table5")

#: One cheap dynamic and one static program.
SMOKE_PROGRAMS = ("write-pickle", "dom")

#: What a cold ``repro tables`` process loads before any work.
COLD_IMPORT = (
    "from repro.bench import registry, suite, tables\n"
    "for name in registry.benchmark_names():\n"
    "    registry.load_source(name)\n"
)

#: The per-layer times of a traced pass (see ``common.SPAN_LAYERS``):
#: ``BenchmarkSuite`` opens one span per cache miss, and builds and
#: compiles happen before a run's or limit study's span opens.
LAYERS = ("lang.parse.ms", "lang.typecheck.ms", "opt.base.ms",
          "opt.pipeline.ms", "runtime.interp.ms", "runtime.limit.ms")


def regenerate(suite: BenchmarkSuite, name: str) -> Dict[str, tables.TableResult]:
    """Every artifact's rows for one program."""
    return {
        artifact: generator(suite, names=[name])
        for artifact, generator in ARTIFACTS.items()
        if artifact in ALL_PROGRAM_ARTIFACTS or suite.is_dynamic(name)
    }


def table_cells(text: str) -> Tuple[str, List[str], Dict[str, List[str]]]:
    """A rendered table as (title, header cells, first cell -> row cells).

    Column spans come from the table's own dashes line, so one program's
    row compares with the golden row whatever the other rows' widths.
    """
    lines = text.rstrip("\n").split("\n")
    spans = [m.span() for m in re.finditer(r"-+", lines[3])]

    def cells(line: str) -> List[str]:
        return [line[a:b].strip() for a, b in spans]

    rows = {}
    for line in lines[4:]:
        row = cells(line)
        rows[row[0]] = row
    return lines[0], cells(lines[2]), rows


def load_goldens() -> Dict[str, str]:
    return {a: (GOLDEN_DIR / (a + ".txt")).read_text() for a in ARTIFACTS}


def segment(names: List[str],
            seconds: float) -> Tuple[List[Tuple[float, list]], float]:
    """Whole passes while another one fits in *seconds*, at least one.

    Returns the passes, each ``(seconds, [(name, seconds, artifacts)])``,
    and the segment's wall time.  Each program's spans, when recorded,
    carry its name as their trace id.
    """
    passes = []
    started = time.perf_counter()
    while True:
        pass_started = time.perf_counter()
        programs = []
        for name in names:
            program_started = time.perf_counter()
            with trace_scope(name):
                artifacts = regenerate(BenchmarkSuite(), name)
            programs.append((name, time.perf_counter() - program_started,
                             artifacts))
        now = time.perf_counter()
        passes.append((now - pass_started, programs))
        if now - started + (now - pass_started) > seconds:
            return passes, now - started


def verify(passes: list, goldens: Dict[str, str], full: bool,
           run: Run) -> None:
    golden_cells = {a: table_cells(text) for a, text in goldens.items()}
    for _, programs in passes:
        for name, _, artifacts in programs:
            ok = True
            for artifact, result in artifacts.items():
                title, header, rows = table_cells(result.text)
                want_title, want_header, want_rows = golden_cells[artifact]
                ok = ok and (title, header, rows.get(name)) == (
                    want_title, want_header, want_rows.get(name))
            run.check(ok, "{}: rows differ from the goldens".format(name))
        if not full:
            continue
        by_name = {name: artifacts for name, _, artifacts in programs}
        for artifact, golden in goldens.items():
            parts = [by_name[n][artifact] for n in registry.benchmark_names()
                     if artifact in by_name[n]]
            whole = tables.TableResult(parts[0].title, parts[0].headers,
                                       [p.rows[0] for p in parts])
            run.check(whole.text + "\n" == golden,
                      "{} differs from golden/{}.txt".format(artifact, artifact))


def run(opts) -> Run:
    result = Run()
    names = list(SMOKE_PROGRAMS if opts.smoke else registry.benchmark_names())
    goldens = load_goldens()

    def cold_import(_):
        subprocess.run([sys.executable, "-c", COLD_IMPORT], env=child_env(),
                       check=True)

    result.end_to_end["setup_s"], _ = median_setup(cold_import, lambda _: None)
    passes, wall = segment(names, opts.seconds)
    result.latencies([p[0] for p in passes], wall)
    result.info["program_s"] = {name: round(seconds, 3)
                                for name, seconds, _ in passes[0][1]}
    all_passes = list(passes)
    if opts.trace:
        instructions = obs.registry().counter("run.interp.instructions")
        before = instructions.value
        obs.reset()
        obs.enable()
        try:
            traced, _ = segment(names, opts.seconds)
        finally:
            obs.disable()
        result.spans = [s.to_json(obs.recorder().epoch)
                        for s in obs.recorder().spans()]
        all_passes += traced
        record_layers(result, passes, traced, instructions.value - before)
    result.end_to_end["peak_rss_mb"] = peak_rss_mb()
    started = time.perf_counter()
    verify(all_passes, goldens, not opts.smoke, result)
    result.info["verify_s"] = time.perf_counter() - started
    return result


def record_layers(result: Run, plain, traced, instructions: int) -> None:
    """Per-pass layer times of the traced segment.  ``instructions`` is
    every instruction the interpreter executed, limit-study replays
    included, so its time is the ``run.interp`` spans under both."""
    ops = len(traced)
    layers = layer_ms(result.spans, LAYERS)
    calls = Counter(span["name"] for span in result.spans)
    result.per_op(layers, ops)
    result.per_op({
        "bench.render.ms":
            1000.0 * sum(p[0] for p in traced) - sum(layers.values()),
        "opt.pipeline.calls": calls["pipeline.build"],
        "runtime.interp.calls": calls["bench.run"],
        "runtime.interp.instructions": instructions,
        "runtime.limit.calls": calls["bench.limit_study"],
    }, ops)
    if instructions:
        interp_ms = sum(s["duration_ms"] for s in result.spans
                        if s["name"] == "run.interp")
        result.per_layer["runtime.interp.ns_per_instruction"] = (
            interp_ms * 1e6 / instructions)
    plain_s = sum(p[0] for p in plain) / len(plain)
    traced_s = sum(p[0] for p in traced) / ops
    result.per_layer["trace.overhead_pct"] = 100.0 * (traced_s / plain_s - 1.0)
