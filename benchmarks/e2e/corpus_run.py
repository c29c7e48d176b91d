"""``corpus_run``: the corpus pipeline over seeded generated programs.

Many small programs and no execution, so the front end and the analyses
dominate.  Set-up writes ``PROGRAMS`` programs of a seeded
:class:`~repro.qa.corpus.CorpusSpec` as one sub-corpus per shard; one op
is ``run_corpus(shard_dir, jobs=1)`` over one shard, timed from outside.
The segment cycles through the shards for ``--seconds``, about four
times each, and a shard's time is the median of its repeats: a burst of
host noise lasting a second or two then costs no shard its time.  The
end-to-end metrics are taken over those per-shard medians.  ``jobs=1``
keeps the work in this process: a worker pool's scheduling adds
run-to-run spread that would hide a per-layer change.

Traced, every op is followed by a second ``run_corpus`` call on the same
shard with the ``repro.obs`` recorder on, and by a timed ``load_shard``
call (the one step ``run_corpus`` opens no span for).  Its counts must
equal the untraced call's.
"""

import random
import shutil
import statistics
import time
from pathlib import Path
from typing import Dict, List, Tuple

from common import SEED_STRIDE, Run, layer_ms, median_setup, peak_rss_mb
from repro import compile_program, obs
from repro.analysis import AliasPairCounter
from repro.analysis.openworld import ANALYSIS_NAMES
from repro.obs.core import trace_scope
from repro.qa.corpus import (CorpusSpec, generate_corpus, iter_shards,
                             load_manifest_header, load_shard, run_corpus)

PROGRAMS = 500
SMOKE_PROGRAMS = 30
SHARD_SIZE = 10
#: Shards recounted with the reference engine after the segment.
RECOUNT_SHARDS = 10
#: The per-layer times of a traced op (see ``common.SPAN_LAYERS``).
LAYERS = ("lang.parse.ms", "lang.typecheck.ms", "opt.base.ms",
          "analysis.build.ms", "analysis.count.ms")

Counts = Tuple[int, int, int]


def write_corpus(root: Path, seed: int, programs: int) -> List[Path]:
    dirs = []
    for i in range(programs // SHARD_SIZE):
        shard_dir = root / "shard-{:04d}".format(i)
        spec = CorpusSpec(seed=seed * SEED_STRIDE + i * SHARD_SIZE,
                          count=SHARD_SIZE, shard_size=SHARD_SIZE)
        generate_corpus(spec, shard_dir)
        dirs.append(shard_dir)
    return dirs


def shard_entries(shard_dir: Path) -> List[dict]:
    header = load_manifest_header(shard_dir)
    return [entry for info in iter_shards(shard_dir, header)
            for entry in load_shard(shard_dir, info)]


def counts(report) -> Counts:
    return report.references, report.local_pairs, report.global_pairs


def reference_counts(shard_dir: Path) -> Counts:
    """Table 5 totals of one shard from the reference engine."""
    totals = (0, 0, 0)
    for entry in shard_entries(shard_dir):
        program = compile_program(entry["source"], entry["name"])
        ir = program.base().program
        for name in ANALYSIS_NAMES:
            report = AliasPairCounter(ir, program.analysis(name),
                                      engine="reference").count()
            totals = tuple(a + b for a, b in zip(totals, report.counts()))
    return totals


def traced_op(shard_dir: Path):
    """``(seconds, report, load seconds)`` of one traced op; its spans
    carry the shard's directory name as their trace id."""
    obs.enable()
    try:
        started = time.perf_counter()
        with trace_scope(shard_dir.name):
            report = run_corpus(shard_dir, jobs=1)
        seconds = time.perf_counter() - started
    finally:
        obs.disable()
    started = time.perf_counter()
    shard_entries(shard_dir)
    return seconds, report, time.perf_counter() - started


def run(opts) -> Run:
    result = Run()
    programs = SMOKE_PROGRAMS if opts.smoke else PROGRAMS

    def setup(i):
        return write_corpus(opts.work / "corpus-{}".format(i), opts.seed,
                            programs)

    def release(dirs):
        shutil.rmtree(dirs[0].parent)

    result.end_to_end["setup_s"], dirs = median_setup(setup, release)
    obs.reset()
    ops = []  # (shard index, seconds, report, traced op or None)
    started = time.perf_counter()
    while time.perf_counter() - started < opts.seconds:
        index = len(ops) % len(dirs)
        op_started = time.perf_counter()
        report = run_corpus(dirs[index], jobs=1)
        seconds = time.perf_counter() - op_started
        traced = traced_op(dirs[index]) if opts.trace else None
        ops.append((index, seconds, report, traced))
    repeats: Dict[int, List[float]] = {}
    for index, seconds, _, _ in ops:
        repeats.setdefault(index, []).append(seconds)
    shard_s = [statistics.median(times) for times in repeats.values()]
    result.latencies(shard_s, sum(shard_s))
    result.info["shard_runs"] = len(ops)
    if opts.trace:
        result.spans = [s.to_json(obs.recorder().epoch)
                        for s in obs.recorder().spans()]
        record_layers(result, ops)
    result.end_to_end["peak_rss_mb"] = peak_rss_mb()
    started = time.perf_counter()
    verify(ops, dirs, random.Random(opts.seed), result)
    result.info["verify_s"] = time.perf_counter() - started
    return result


def verify(ops, dirs: List[Path], rng: random.Random, result: Run) -> None:
    first: Dict[int, Counts] = {}
    for index, _, report, traced in ops:
        result.check(report.ok and report.compiled == SHARD_SIZE,
                     "shard {}: {} of {} compiled, failures {}".format(
                         index, report.compiled, SHARD_SIZE,
                         report.failures[:1]))
        first.setdefault(index, counts(report))
        if traced is not None:
            result.check(counts(traced[1]) == counts(report),
                         "shard {}: traced counts {} != untraced {}".format(
                             index, counts(traced[1]), counts(report)))
    for index in rng.sample(sorted(first), min(RECOUNT_SHARDS, len(first))):
        want = reference_counts(dirs[index])
        result.check(first[index] == want,
                     "shard {}: run_corpus {} != reference {}".format(
                         index, first[index], want))


def record_layers(result: Run, ops) -> None:
    """Per-op layer times and counts of the traced calls."""
    traced = [op[3] for op in ops]
    layers = layer_ms(result.spans, LAYERS)
    traced_ms = 1000.0 * sum(t[0] for t in traced)
    load_ms = 1000.0 * sum(t[2] for t in traced)
    result.per_op(layers, len(ops))
    result.per_op({
        "qa.corpus.load.ms": load_ms,
        "qa.corpus.overhead.ms": traced_ms - load_ms - sum(layers.values()),
        "analysis.references": sum(t[1].references for t in traced),
        "analysis.pairs": sum(t[1].local_pairs + t[1].global_pairs
                              for t in traced),
    }, len(ops))
    untraced_s = sum(op[1] for op in ops)
    result.per_layer["trace.overhead_pct"] = 100.0 * (
        traced_ms / 1000.0 / untraced_s - 1.0)
