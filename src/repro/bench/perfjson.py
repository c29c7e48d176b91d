"""Machine-readable performance numbers for the alias-query engine.

``make bench-quick`` runs :func:`run_quick_bench` and writes
``BENCH_alias.json`` at the repository root; the test suite runs the same
code with tiny repetition counts to keep the JSON schema honest.  The
report captures the three costs the paper's Section 2.5 discusses plus
the engineering numbers this reproduction adds on top:

* ``construction_ms`` — building each analysis from the checked module
  (the "single linear pass" claim);
* ``query_throughput`` — raw ``may_alias`` queries over all reference
  pairs of one benchmark, in thousands of queries per second, with the
  memo-cache statistics;
* ``table5`` — full-suite Table 5 wall time under the per-pair
  ``reference`` engine and the partition-based ``fast`` engine, with the
  resulting speedup;
* ``serve`` — the warm-daemon vs cold single-shot row pair
  (``serve.warm`` / ``serve.cold``, :mod:`repro.serve.bench`): what the
  analysis-as-a-service layer saves on repeated queries.

``BENCH_alias.json`` is overwritten in place; ``--history FILE.jsonl``
additionally *appends* a :mod:`repro.obs.history` ledger record (git
sha, host fingerprint, the report's numbers as phase series, counters)
so successive runs stay comparable — ``repro bench compare``/``gate``
consume that ledger.
"""

import json
import time
from typing import Dict, List, Optional

from repro.analysis import ANALYSIS_NAMES, AliasPairCounter, collect_heap_references
from repro.analysis.openworld import AnalysisContext
from repro.bench import registry
from repro.bench.suite import BASE, BenchmarkSuite
from repro.obs import core as obs
from repro.obs import history, jsonl

#: Bumped whenever the JSON layout changes.
#: v2: ``table5`` gained the bulk-kernel rows (``bulk_build_ms``,
#: ``bulk_ms``, ``bulk_backend``, ``speedup_bulk``).
#: v3: new top-level ``serve`` section with the warm-daemon vs cold
#: single-shot row pair (``serve.warm`` / ``serve.cold``).
#: v4: the bulk-kernel rows are gone with the bulk engine.
SCHEMA_VERSION = 4

#: Keys every report must carry (the smoke test checks these).
REPORT_KEYS = ("schema", "query_benchmark", "construction_ms",
               "query_throughput", "table5", "serve")


def _best(fn, rounds: int) -> float:
    """Best-of-*rounds* wall time of ``fn()`` in seconds (at least one)."""
    best = float("inf")
    for _ in range(max(rounds, 1)):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def measure_construction(suite: BenchmarkSuite, name: str,
                         rounds: int = 3) -> Dict[str, float]:
    """Per-analysis build time (ms) from an already-checked module."""
    program = suite.program(name)
    out: Dict[str, float] = {}
    with obs.span("quick.construction", program=name):
        for analysis_name in ANALYSIS_NAMES:
            def build() -> None:
                AnalysisContext(program.checked).build(analysis_name)
            out[analysis_name] = round(_best(build, rounds) * 1000, 3)
    return out


def measure_query_throughput(suite: BenchmarkSuite, name: str,
                             rounds: int = 3) -> Dict[str, dict]:
    """All-pairs ``may_alias`` throughput per analysis, with cache stats.

    Each round starts from a cold cache; cache statistics are taken from
    the last round, so they describe exactly one all-pairs sweep.
    """
    program = suite.program(name)
    base = suite.build(name, BASE)
    refs = [ap for aps in collect_heap_references(base.program).values()
            for ap in aps]
    queries = len(refs) * (len(refs) - 1) // 2
    ctx = AnalysisContext(program.checked)
    out: Dict[str, dict] = {}
    with obs.span("quick.query", program=name):
        for analysis_name in ANALYSIS_NAMES:
            analysis = ctx.build(analysis_name)

            def sweep() -> None:
                analysis.cache_clear()
                may_alias = analysis.may_alias
                for i in range(len(refs)):
                    for j in range(i + 1, len(refs)):
                        may_alias(refs[i], refs[j])

            elapsed = _best(sweep, rounds)
            out[analysis_name] = {
                "queries": queries,
                "ms": round(elapsed * 1000, 3),
                "kqps": round(queries / max(elapsed, 1e-9) / 1000, 1),
                "cache": analysis.cache_stats(),
            }
    return out


def measure_table5_engines(suite: BenchmarkSuite,
                           names: Optional[List[str]] = None,
                           rounds: int = 3) -> Dict[str, object]:
    """Full-suite Table 5 counting time under both engines.

    Analyses and reference lists are built once; each timed round clears
    the per-analysis query caches so both engines start cold.
    """
    names = names or registry.benchmark_names()
    counters = []
    for name in names:
        program = suite.program(name)
        base = suite.build(name, BASE)
        for analysis_name in ANALYSIS_NAMES:
            analysis = program.analysis(analysis_name)
            counters.append((
                analysis,
                AliasPairCounter(base.program, analysis, engine="reference"),
                AliasPairCounter(base.program, analysis, engine="fast"),
            ))

    def run(index: int) -> None:
        for entry in counters:
            entry[0].cache_clear()
            entry[index].count()

    with obs.span("quick.table5"):
        reference = _best(lambda: run(1), rounds)
        fast = _best(lambda: run(2), rounds)
    return {
        "programs": list(names),
        "analyses": list(ANALYSIS_NAMES),
        "reference_ms": round(reference * 1000, 3),
        "fast_ms": round(fast * 1000, 3),
        "speedup": round(reference / max(fast, 1e-9), 2),
    }


def measure_serve(names: Optional[List[str]] = None,
                  rounds: int = 3) -> Dict[str, object]:
    """The ``serve.warm`` / ``serve.cold`` row pair (schema v3).

    Delegates to :func:`repro.serve.bench.run_serve_bench` — the same
    measurement ``repro bench serve`` runs and ``repro bench gate
    --serve`` enforces — and keeps only the ledger-worthy numbers.
    """
    from repro.serve.bench import run_serve_bench

    result = run_serve_bench(names=names, repeats=rounds)
    return {
        "benchmarks": result["benchmarks"],
        "queries": result["queries"],
        "cold_ms": result["cold_ms"],
        "warm_ms": result["warm_ms"],
        "speedup": result["speedup"],
    }


def run_quick_bench(query_benchmark: str = "m3cg",
                    table5_names: Optional[List[str]] = None,
                    rounds: int = 3) -> Dict[str, object]:
    """Collect every number ``BENCH_alias.json`` records."""
    suite = BenchmarkSuite()
    return {
        "schema": SCHEMA_VERSION,
        "query_benchmark": query_benchmark,
        "construction_ms": measure_construction(suite, query_benchmark, rounds),
        "query_throughput": measure_query_throughput(suite, query_benchmark, rounds),
        "table5": measure_table5_engines(suite, table5_names, rounds),
        "serve": measure_serve([query_benchmark], rounds),
    }


def normalize_report(obj):
    """Round every float to 3 decimals, recursively.

    ``BENCH_alias.json`` is committed, so repeated ``make bench-quick``
    runs should produce the smallest possible diffs: keys are emitted
    sorted and every float is pinned to a fixed rounding, leaving wall
    time itself as the only source of churn.
    """
    if isinstance(obj, float):
        return round(obj, 3)
    if isinstance(obj, dict):
        return {key: normalize_report(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [normalize_report(value) for value in obj]
    return obj


def report_phases(report: Dict[str, object]) -> Dict[str, Dict[str, float]]:
    """The report's own numbers as history phase series (in seconds).

    These ride along with the span-derived phases in the ledger record,
    so ``repro bench compare`` can track the engine numbers the quick
    bench exists to measure — construction, query sweep and the Table 5
    engines — not just the suite driver's wall clock.
    """
    benchmark = str(report["query_benchmark"])
    phases: Dict[str, Dict[str, float]] = {benchmark: {}, history.SUITE_BUCKET: {}}
    for analysis_name, ms in report["construction_ms"].items():
        phases[benchmark]["quick.construction." + analysis_name] = \
            round(ms / 1000.0, 6)
    for analysis_name, entry in report["query_throughput"].items():
        phases[benchmark]["quick.query." + analysis_name] = \
            round(entry["ms"] / 1000.0, 6)
    table5 = report["table5"]
    phases[history.SUITE_BUCKET]["quick.table5.reference"] = \
        round(table5["reference_ms"] / 1000.0, 6)
    phases[history.SUITE_BUCKET]["quick.table5.fast"] = \
        round(table5["fast_ms"] / 1000.0, 6)
    return phases


def validate_report(report: Dict[str, object]) -> None:
    """Raise ``AssertionError`` unless *report* matches the schema."""
    for key in REPORT_KEYS:
        assert key in report, "missing key {!r}".format(key)
    assert report["schema"] == SCHEMA_VERSION
    construction = report["construction_ms"]
    throughput = report["query_throughput"]
    for analysis_name in ANALYSIS_NAMES:
        assert construction[analysis_name] >= 0
        entry = throughput[analysis_name]
        assert entry["queries"] > 0 and entry["kqps"] > 0
        cache = entry["cache"]
        assert set(cache) == {"hits", "misses", "size"}
        assert cache["misses"] == cache["size"] > 0
    table5 = report["table5"]
    assert table5["reference_ms"] > 0 and table5["fast_ms"] > 0
    assert table5["speedup"] > 0
    serve = report["serve"]
    assert serve["queries"] > 0 and serve["benchmarks"]
    assert serve["cold_ms"] > 0 and serve["warm_ms"] > 0
    assert serve["speedup"] > 0


def main(argv: Optional[List[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="write machine-readable alias-engine benchmark numbers")
    parser.add_argument("-o", "--output", default="BENCH_alias.json")
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--prom", metavar="FILE", default=None,
                        help="also dump the observability metric registry "
                        "in Prometheus text format (e.g. BENCH_obs.prom)")
    parser.add_argument("--history", metavar="FILE.jsonl", default=None,
                        help="append a schema-versioned run record (git "
                        "sha, host, per-phase seconds, counters) to this "
                        "benchmark ledger (e.g. BENCH_history.jsonl)")
    args = parser.parse_args(argv)
    if args.prom is not None or args.history is not None:
        from repro.obs import metrics
        metrics.registry().reset()
    if args.history is not None:
        obs.reset()
        obs.enable()
    try:
        report = run_quick_bench(rounds=args.rounds)
    finally:
        obs.disable()
    validate_report(report)
    report = normalize_report(report)
    with open(args.output, "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")
    table5 = report["table5"]
    print("wrote {}: table5 reference {}ms fast {}ms ({}x)".format(
        args.output, table5["reference_ms"], table5["fast_ms"],
        table5["speedup"]))
    if args.prom is not None:
        from repro.obs.promtext import write_prom
        from repro.qa import chaos

        # Chaos/robustness series appear at zero even in fault-free
        # runs, so the .prom surface is stable across chaos on/off.
        chaos.register_metrics()
        lines = write_prom(args.prom)
        print("wrote {}: {} lines".format(args.prom, lines))
    if args.history is not None:
        record = history.collect_record(
            "bench-quick", extra_phases=report_phases(report))
        jsonl.append(args.history, record)
        print("appended {} record to {} (sha {})".format(
            record["label"], args.history,
            (record["git_sha"] or "unknown")[:12]))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
