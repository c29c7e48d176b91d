"""Warm-vs-cold serving throughput: the ``repro bench serve`` numbers.

The daemon exists to beat the single-shot CLI on repeated workloads, so
this module measures exactly that contrast over the bench-suite
programs:

* **cold** — what ``repro alias FILE`` pays per invocation: a full
  compile (parse, typecheck, lower) plus Table 5 counts for all three
  analyses with the default fast engine, from scratch, every query;
* **warm** — the same ``tables`` query answered by a primed
  :class:`~repro.serve.daemon.Daemon` (every count a fact-bundle hit).

Both loops run the *same* query stream, and the warm answers are pinned
against the cold ones in-process before any number is reported — a
daemon that is fast but wrong fails here, not in production.

The measured loops run under ``serve.cold`` / ``serve.warm`` spans so
:func:`repro.obs.history.phase_seconds` lands them in the benchmark
ledger (the spans are their only source there), where ``repro bench
gate`` regresses them like any other phase.  :func:`check_speedup` is
the acceptance gate: warm throughput must clear ``min_speedup`` × cold
throughput.
"""

import time
from typing import Dict, List, Optional

from repro import compile_program
from repro.analysis import ANALYSIS_NAMES, AliasPairCounter
from repro.bench import registry
from repro.obs import core as obs
from repro.obs import metrics

#: The acceptance threshold: warm served queries must be at least this
#: many times faster than cold single-shot CLI queries.
DEFAULT_MIN_SPEEDUP = 5.0


class ServeBenchError(AssertionError):
    """A serve-bench invariant failed (disagreement or missed speedup)."""


def _cold_tables(source: str, name: str) -> List[tuple]:
    """One cold single-shot query: full compile + all-analysis counts."""
    program = compile_program(source, unit=name)
    base = program.base()
    return [
        AliasPairCounter(
            base.program, program.analysis(analysis), engine="fast"
        ).count().counts()
        for analysis in ANALYSIS_NAMES
    ]


def run_serve_bench(names: Optional[List[str]] = None,
                    repeats: int = 3) -> Dict[str, object]:
    """Measure warm vs cold throughput over the bench suite.

    One *query* is one closed-world ``tables`` answer for one benchmark
    (all three analyses).  Cold runs ``repeats`` single-shot rounds;
    warm primes the daemon once (untimed — that cost is the cold path,
    already measured) and then answers the same ``repeats`` rounds from
    the fact bundles.
    """
    from repro.serve.daemon import Daemon
    from repro.serve.session import SessionManager

    names = list(names or registry.benchmark_names())
    sources = {name: registry.load_source(name) for name in names}
    queries = repeats * len(names)

    cold_answers: Dict[str, List[tuple]] = {}
    with obs.span("serve.cold", queries=queries):
        cold_start = time.perf_counter()
        for _ in range(repeats):
            for name in names:
                cold_answers[name] = _cold_tables(sources[name], name)
        cold_s = time.perf_counter() - cold_start

    daemon = Daemon(SessionManager(store=None))
    warm_answers: Dict[str, List[tuple]] = {}

    def ask(name: str) -> List[tuple]:
        response = daemon.handle_request(
            _tables_request(sources[name], name))
        if not response.get("ok"):
            raise ServeBenchError(
                "serve bench query failed for {}: {}".format(name, response))
        return [
            (row["references"], row["local_pairs"], row["global_pairs"])
            for row in response["result"]["rows"]
        ]

    for name in names:  # prime: fills each module's fact bundle
        warm_answers[name] = ask(name)
    with obs.span("serve.warm", queries=queries):
        warm_start = time.perf_counter()
        for _ in range(repeats):
            for name in names:
                warm_answers[name] = ask(name)
        warm_s = time.perf_counter() - warm_start

    for name in names:  # correctness before speed
        if warm_answers[name] != cold_answers[name]:
            raise ServeBenchError(
                "warm answers for {} disagree with cold CLI path: "
                "{} != {}".format(name, warm_answers[name],
                                  cold_answers[name]))

    # The daemon's windowed gauges (burn rates, per-op quantiles) are
    # published on read; read once so the registry snapshot carries them.
    daemon.journal.publish()
    cold_qps = queries / max(cold_s, 1e-9)
    warm_qps = queries / max(warm_s, 1e-9)
    result = {
        "benchmarks": names,
        "repeats": repeats,
        "queries": queries,
        "cold_ms": round(cold_s * 1000, 3),
        "warm_ms": round(warm_s * 1000, 3),
        "cold_qps": round(cold_qps, 1),
        "warm_qps": round(warm_qps, 1),
        "speedup": round(warm_qps / max(cold_qps, 1e-9), 2),
    }
    gauge = metrics.registry().gauge
    gauge("serve.bench.speedup").set(result["speedup"])
    gauge("serve.bench.warm_qps").set(result["warm_qps"])
    return result


def _tables_request(source: str, name: str):
    from repro.serve.protocol import Request

    return Request(op="tables", id=name, source=source, name=name)


def check_speedup(result: Dict[str, object],
                  min_speedup: float = DEFAULT_MIN_SPEEDUP) -> None:
    """Raise unless warm throughput clears the acceptance threshold."""
    if result["speedup"] < min_speedup:
        raise ServeBenchError(
            "warm serving is only {:.2f}x cold single-shot throughput "
            "(threshold {:.1f}x)".format(result["speedup"], min_speedup))
