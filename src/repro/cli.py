"""Command-line interface: ``python -m repro <command> ...``.

Commands:

* ``check FILE``   — parse and type-check a MiniM3 module;
* ``ir FILE``      — dump the (optionally optimized) IR;
* ``run FILE``     — execute on the simulated machine, print output/stats;
* ``alias FILE``   — static alias-pair report under each analysis;
* ``limit FILE``   — dynamic redundancy limit study (Figures 9/10 style);
* ``bench [NAME]`` — run registered paper benchmarks, appending a ledger
  record to ``BENCH_history.jsonl``; ``bench compare OLD NEW`` and
  ``bench gate --baseline REF`` run the perf-regression workflow over
  that ledger (see DESIGN.md §6f);
* ``tables``       — regenerate the paper's tables/figures (slow);
* ``fuzz``         — generate seeded programs and cross-check the
  analyses against the soundness oracles (see DESIGN.md §6d); the seed
  range fans out over ``--jobs`` worker processes;
* ``corpus``       — ``gen``/``verify``/``run``/``bench`` over sharded,
  content-hashed corpora of generated programs (see DESIGN.md §6g);
* ``profile``      — phase-time tree + top metric counts for one program
  (a file or a registered benchmark; see DESIGN.md §6e).

``bench`` and ``tables`` isolate faults: one broken benchmark or input
file is reported (as a structured JSON failure entry) without aborting
the others, and the exit code reflects the aggregate outcome.

Cross-cutting flags: ``-q``/``-v`` before the command select the logging
level (:mod:`repro.obs.log`); ``--trace FILE.jsonl`` on the analysis
commands enables the span recorder and writes one ``trace_record`` on
exit — every span plus the metric registry — which ``repro trace
show ID --store FILE.jsonl`` opens (:mod:`repro.obs.tracestore`).
"""

import argparse
import json
import sys
import time
from typing import List, Optional

from repro import CompileError, compile_program
from repro.analysis import ANALYSIS_NAMES, AliasPairCounter
from repro.ir.printer import format_program
from repro.lang.errors import ResourceLimitError
from repro.obs import core as obs
from repro.obs import log
from repro.obs.sampler import DEFAULT_SAMPLE_RATE as SERVE_SAMPLE_RATE
from repro.qa import guards
from repro.runtime.limit import Category
from repro.runtime.values import M3RuntimeError
from repro.util.tables import render_table


def _load(path: str):
    with open(path) as f:
        source = f.read()
    return compile_program(source, path)


def _failure_entry(name: str, phase: str, exc: BaseException,
                   seconds: Optional[float] = None) -> dict:
    """One machine-readable failure record for batch commands.

    ``seconds`` is the wall clock the failed unit burned before its
    bulkhead caught it, so failure timing is never lost.
    """
    entry = {
        "name": name,
        "phase": phase,
        "error": type(exc).__name__,
        "message": str(exc),
    }
    if seconds is not None:
        entry["seconds"] = round(seconds, 3)
    return entry


def _emit_failures(failures: List[dict]) -> None:
    """Print the aggregate failure report (JSON, one parseable block)."""
    if failures:
        log.error("--- failures ---")
        log.error(json.dumps(failures, indent=2, sort_keys=True))


def _optimize(program, args):
    if args.analysis is None and not getattr(args, "minv_inline", False):
        return program.base()
    return program.pipeline.build(
        analysis=args.analysis or "SMFieldTypeRefs",
        rle=args.analysis is not None,
        minv_inline=getattr(args, "minv_inline", False),
        open_world=getattr(args, "open_world", False),
        copyprop=getattr(args, "copyprop", False),
        pre=getattr(args, "pre", False),
    )


# ----------------------------------------------------------------------
# Commands


def cmd_check(args) -> int:
    with open(args.file) as f:
        source = f.read()
    try:
        program = compile_program(source, args.file)
    except CompileError as err:
        # Render with the offending source line and a caret.
        log.error("error: {}".format(err.render(source)))
        return 1
    checked = program.checked
    print("module {}: OK".format(checked.name))
    print("  types     : {}".format(len(checked.named_types)))
    print("  objects   : {}".format(len(checked.object_types()) - 1))  # minus ROOT
    print("  globals   : {}".format(len(checked.globals)))
    print("  procedures: {}".format(len(checked.proc_order) - 1))  # minus main
    return 0


def cmd_ir(args) -> int:
    program = _load(args.file)
    result = _optimize(program, args)
    print(format_program(result.program))
    if result.rle is not None:
        print(
            "\n; RLE: {} loads eliminated, {} paths hoisted".format(
                result.rle.eliminated_loads, result.rle.hoisted_paths
            )
        )
    return 0


def cmd_run(args) -> int:
    program = _load(args.file)
    result = _optimize(program, args)
    stats = program.run(result)
    sys.stdout.write(stats.output_text())
    if not stats.output_text().endswith("\n"):
        print()
    if args.stats:
        log.info("--- execution statistics ---")
        log.info("instructions : {}".format(stats.instructions))
        log.info("heap loads   : {}".format(stats.heap_loads))
        log.info("other loads  : {}".format(stats.other_loads))
        log.info("heap stores  : {}".format(stats.heap_stores))
        log.info("calls        : {}".format(stats.calls))
        log.info("cycles       : {}".format(stats.cycles))
    return 0


def cmd_alias(args) -> int:
    program = _load(args.file)
    base = program.base()
    rows = []
    for name in ANALYSIS_NAMES:
        analysis = program.analysis(name, open_world=args.open_world)
        report = AliasPairCounter(base.program, analysis, engine=args.engine).count()
        rows.append(
            [name, report.references, report.local_pairs, report.global_pairs]
        )
    print(
        render_table(
            ["Analysis", "References", "Local pairs", "Global pairs"],
            rows,
            title="Alias pairs for {}".format(program.name),
        )
    )
    return 0


def cmd_limit(args) -> int:
    program = _load(args.file)
    before = program.limit_study(program.base())
    optimized = program.pipeline.build(analysis=args.analysis or "SMFieldTypeRefs")
    after = program.limit_study(optimized)
    print("heap loads            : {}".format(before.total_heap_loads))
    print("redundant (original)  : {} ({:.1%})".format(
        before.redundant_loads, before.redundant_fraction))
    print("redundant (after RLE) : {} ({:.1%})".format(
        after.redundant_loads, after.redundant_fraction))
    print("residue classification:")
    for category in Category:
        print("  {:14} {}".format(category.value, after.by_category[category]))
    return 0


def cmd_bench(args) -> int:
    """Dispatch ``repro bench [NAME] | compare OLD NEW | gate``."""
    positional = list(args.name or [])
    if positional and positional[0] == "compare":
        return _cmd_bench_compare(args, positional[1:])
    if positional and positional[0] == "gate":
        return _cmd_bench_gate(args, positional[1:])
    if positional and positional[0] == "serve":
        return _cmd_bench_serve(args, positional[1:])
    if len(positional) > 1:
        log.error("bench takes at most one benchmark name "
                  "(or a 'compare'/'gate'/'serve' subcommand); got {!r}"
                  .format(positional))
        return 2
    name = positional[0] if positional else None
    recording = _HistoryRecording(enabled=not args.no_history)
    with recording:
        status = _run_bench_suite(args, name)
    recording.append(args.history, label="bench")
    return status


class _HistoryRecording:
    """Span/metric recording scoped to one ledger-producing bench run.

    If ``--trace`` already enabled the recorder in :func:`main`, reuse
    its state (the trace and the ledger record then describe the same
    run); otherwise enable a fresh recorder/registry for the duration
    and restore the disabled state afterwards.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._owns_recorder = False

    def __enter__(self) -> "_HistoryRecording":
        if self.enabled and not obs.enabled():
            from repro.obs import metrics

            obs.reset()
            metrics.registry().reset()
            obs.enable()
            self._owns_recorder = True
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._owns_recorder:
            obs.disable()
        return False

    def append(self, path: str, label: str) -> Optional[dict]:
        """Collect a ledger record from the recorded run and append it."""
        if not self.enabled:
            return None
        from repro.obs import history, jsonl

        record = history.collect_record(label)
        jsonl.append(path, record)
        log.info("history: appended {} record to {} (sha {})".format(
            label, path, (record["git_sha"] or "unknown")[:12]))
        return record


def _bench_names(args, name: Optional[str]) -> List[str]:
    from repro.bench import registry

    if name:
        return [name]
    if getattr(args, "only", None):
        return [n for n in args.only.split(",") if n]
    return registry.benchmark_names()


def _run_bench_suite(args, name: Optional[str]) -> int:
    from repro.bench.suite import BenchmarkSuite, RunConfig

    suite = BenchmarkSuite()
    names = _bench_names(args, name)
    rows = []
    failures: List[dict] = []
    for name in names:
        # Bulkhead: one broken benchmark must not sink the whole run.
        # Wall clock is taken around the bulkhead so a failing benchmark
        # still reports how long it burned before it died.
        started = time.perf_counter()
        try:
            base = suite.run(name)
            config = RunConfig(analysis=args.analysis or "SMFieldTypeRefs")
            opt = suite.run(name, config)
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:
            failures.append(_failure_entry(
                name, "bench", exc, seconds=time.perf_counter() - started))
            continue
        rows.append(
            [
                name,
                base.instructions,
                base.heap_loads,
                opt.heap_loads,
                round(100.0 * opt.cycles / base.cycles, 1),
                round(time.perf_counter() - started, 3),
            ]
        )
    if rows:
        print(
            render_table(
                ["Benchmark", "Instructions", "Heap loads", "After RLE",
                 "% time", "Wall s"],
                rows,
                title="Benchmark summary (RLE[{}])".format(
                    args.analysis or "SMFieldTypeRefs"
                ),
            )
        )
    _emit_failures(failures)
    return 1 if failures else 0


def _write_comparison(args, report) -> None:
    print(report.render_text())
    if getattr(args, "md", None):
        with open(args.md, "w") as f:
            f.write(report.render_markdown())
        log.info("wrote markdown report: {}".format(args.md))


def _cmd_bench_compare(args, rest: List[str]) -> int:
    """``repro bench compare OLD NEW`` — compare two ledger selections."""
    from repro.obs import history, regress

    if len(rest) != 2:
        log.error("usage: repro bench compare OLD NEW "
                  "(each a ledger file, a git sha/ref, or 'latest')")
        return 2
    try:
        old = history.resolve_selection(rest[0], args.history)
        new = history.resolve_selection(rest[1], args.history)
    except (OSError, ValueError) as err:
        log.error("bench compare: {}".format(err))
        return 2
    report = regress.compare_records(old, new, **_thresholds(args))
    _write_comparison(args, report)
    return 1 if report.has_regressions else 0


def _thresholds(args) -> dict:
    """CLI comparison thresholds, defaulting to the regress constants."""
    from repro.obs import regress

    return {
        "tolerance": (regress.DEFAULT_TOLERANCE if args.tolerance is None
                      else args.tolerance),
        "mad_k": regress.DEFAULT_MAD_K if args.mad_k is None else args.mad_k,
        "min_seconds": (regress.DEFAULT_MIN_SECONDS if args.min_seconds is None
                        else args.min_seconds),
    }


def _cmd_bench_gate(args, rest: List[str]) -> int:
    """``repro bench gate --baseline REF`` — measure HEAD, compare, exit
    nonzero on a noise-banded regression (or on a failed benchmark)."""
    from repro.obs import history, jsonl, regress

    if rest:
        log.error("bench gate takes no positional arguments; got {!r}"
                  .format(rest))
        return 2
    if args.baseline is None:
        log.error("bench gate requires --baseline "
                  "(a ledger file, a git sha/ref, or 'latest')")
        return 2
    try:
        baseline = history.resolve_selection(args.baseline, args.history)
    except (OSError, ValueError) as err:
        log.error("bench gate: {}".format(err))
        return 2
    from repro.obs import metrics

    repeats = max(1, args.repeats)
    new_records: List[dict] = []
    bench_failed = False
    trace_active = obs.enabled()
    for repeat in range(repeats):
        log.info("gate: measuring repeat {}/{}".format(repeat + 1, repeats))
        # Each repeat needs a fresh recorder segment *and* a fresh suite
        # (the suite memoises runs, which would turn repeat 2 into a
        # zero-cost replay); _run_bench_suite builds its own suite.
        obs.reset()
        metrics.registry().reset()
        obs.enable()
        try:
            if _run_bench_suite(args, None) != 0:
                bench_failed = True
            if args.corpus is not None:
                # The production corpus run happens inside the measured
                # segment so its corpus.run phase lands in the gate record
                # and regresses like any benchmark phase.
                from repro.qa.corpus import run_corpus

                try:
                    corpus_report = run_corpus(
                        args.corpus, jobs=1, max_shards=args.corpus_shards)
                except (KeyboardInterrupt, SystemExit):
                    raise
                except Exception as exc:
                    log.error("gate: corpus run errored: {}".format(exc))
                    bench_failed = True
                else:
                    if not corpus_report.ok:
                        log.error("gate: corpus run failed on {} program(s)"
                                  .format(len(corpus_report.failures)))
                        bench_failed = True
            if args.serve:
                # Same idea for the serving layer: the serve.cold /
                # serve.warm phases land in the gate record, and the
                # warm-vs-cold speedup floor is enforced outright.
                from repro.serve.bench import (
                    DEFAULT_MIN_SPEEDUP,
                    ServeBenchError,
                    check_speedup,
                    run_serve_bench,
                )

                try:
                    serve_result = run_serve_bench(
                        names=([n for n in args.only.split(",") if n]
                               if args.only else None),
                        repeats=1)
                    check_speedup(
                        serve_result,
                        DEFAULT_MIN_SPEEDUP if args.min_speedup is None
                        else args.min_speedup)
                except (KeyboardInterrupt, SystemExit):
                    raise
                except ServeBenchError as exc:
                    log.error("gate: serve bench failed: {}".format(exc))
                    bench_failed = True
                except Exception as exc:
                    log.error("gate: serve bench errored: {}".format(exc))
                    bench_failed = True
        finally:
            if not trace_active:
                obs.disable()
        record = history.collect_record("gate")
        new_records.append(record)
        if not args.no_history:
            jsonl.append(args.history, record)
    thresholds = _thresholds(args)
    report = regress.compare_records(baseline, new_records, **thresholds)
    _write_comparison(args, report)
    if bench_failed:
        log.error("gate: benchmark failures (see above)")
        return 1
    if report.has_regressions:
        log.error("gate: {} regression(s) beyond tolerance {:.0%}".format(
            len(report.regressions), thresholds["tolerance"]))
        return 1
    print("gate: ok ({} series within tolerance {:.0%})".format(
        len(report.comparisons), thresholds["tolerance"]))
    return 0


def _cmd_bench_serve(args, rest: List[str]) -> int:
    """``repro bench serve`` — warm daemon vs cold single-shot CLI."""
    from repro.serve.bench import (
        DEFAULT_MIN_SPEEDUP,
        ServeBenchError,
        check_speedup,
        run_serve_bench,
    )

    if rest:
        log.error("bench serve takes no positional arguments; got {!r}"
                  .format(rest))
        return 2
    names = [n for n in args.only.split(",") if n] if args.only else None
    recording = _HistoryRecording(enabled=not args.no_history)
    with recording:
        result = run_serve_bench(names=names, repeats=max(args.repeats, 1))
    recording.append(args.history, label="bench-serve")
    print(render_table(
        ["Mode", "Wall ms", "Queries/s"],
        [
            ["serve.cold", result["cold_ms"], result["cold_qps"]],
            ["serve.warm", result["warm_ms"], result["warm_qps"]],
        ],
        title="Serve throughput over {} ({} queries, {:.2f}x warm)".format(
            ", ".join(result["benchmarks"]), result["queries"],
            result["speedup"]),
    ))
    min_speedup = (DEFAULT_MIN_SPEEDUP if args.min_speedup is None
                   else args.min_speedup)
    try:
        check_speedup(result, min_speedup)
    except ServeBenchError as err:
        log.error("bench serve: {}".format(err))
        return 1
    print("bench serve: ok ({:.2f}x >= {:.1f}x)".format(
        result["speedup"], min_speedup))
    return 0


def cmd_serve(args) -> int:
    """``repro serve`` — the long-running analysis daemon."""
    import json
    import os
    import signal
    from pathlib import Path

    from repro.obs.sampler import TRACE_STORE_ENV, HeadSampler
    from repro.obs.tracestore import TraceStore
    from repro.serve.daemon import Daemon
    from repro.serve.factcache import DEFAULT_MAX_BYTES, FactStore
    from repro.serve.session import SessionManager

    store = None
    if not args.no_cache:
        # None = flag omitted (use the store default); 0 = unbounded.
        max_bytes = args.cache_max_bytes
        if max_bytes == 0:
            max_bytes = None
        elif max_bytes is None:
            max_bytes = DEFAULT_MAX_BYTES
        store = FactStore(Path(args.cache_dir), max_bytes=max_bytes)
    if args.mode == "warmup":
        from repro.serve.warmup import warmup_from_corpus

        if store is None:
            log.error("serve warmup needs an on-disk store (drop --no-cache)")
            return 2
        if not args.corpus:
            log.error("serve warmup requires --corpus DIR")
            return 2
        summary = warmup_from_corpus(args.corpus, store,
                                     max_programs=args.max_programs)
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    manager = SessionManager(store=store, max_sessions=args.max_sessions,
                             differential=args.differential)
    if not 0.0 <= args.trace_sample_rate <= 1.0:
        log.error("serve: --trace-sample-rate must be in [0, 1]")
        return 2
    trace_store_dir = args.trace_store or os.environ.get(TRACE_STORE_ENV)
    daemon = Daemon(manager, deadline_seconds=args.deadline_seconds,
                    slo_ms=args.slo_ms, slow_ms=args.slow_ms,
                    access_log_path=args.access_log,
                    access_log_sample=args.access_log_sample,
                    sampler=HeadSampler(args.trace_sample_rate),
                    trace_store=(TraceStore(trace_store_dir)
                                 if trace_store_dir else None))
    if args.http is not None:
        port = daemon.start_http(args.http)
        log.info("serve: http listening on 127.0.0.1:{}".format(port))
        if not args.stdio:
            # HTTP-only: print the port on stdout (clients parse it)
            # and block until a shutdown request or signal arrives.
            # SIGTERM/SIGINT drain gracefully: stop accepting analysis
            # work, finish in-flight requests, flush the fact store,
            # exit 0.  (Stdio mode keeps the default handlers — its
            # drain path is EOF or the shutdown op.)
            def _on_signal(signum, frame):
                log.info("serve: caught signal {}, draining".format(signum))
                daemon.begin_drain()

            for sig in (signal.SIGTERM, signal.SIGINT):
                try:
                    signal.signal(sig, _on_signal)
                except ValueError:
                    pass  # not the main thread (embedded use)
            print("PORT {}".format(port), flush=True)
            daemon.shutdown_event.wait()
            drained = daemon.drain(timeout=args.drain_timeout)
            if not drained:
                log.warn("serve: drain timed out with requests in flight")
            return 0
    return daemon.serve_stdio(sys.stdin, sys.stdout)


def cmd_client(args) -> int:
    """``repro client`` — query a daemon (or run the smoke battery)."""
    import json
    import tempfile

    from repro.obs.profile import render_span_tree
    from repro.serve import client as serve_client

    if args.smoke:
        with tempfile.TemporaryDirectory(prefix="repro-serve-smoke-") as tmp:
            source = (_read_source(args.file) if args.file
                      else serve_client.SMOKE_SOURCE)
            report = serve_client.run_smoke(source, cache_dir=tmp)
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    if args.obs_smoke:
        with tempfile.TemporaryDirectory(prefix="repro-obs-smoke-") as tmp:
            source = (_read_source(args.file) if args.file
                      else serve_client.SMOKE_SOURCE)
            report = serve_client.run_obs_smoke(source, cache_dir=tmp)
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    if args.trace_smoke:
        with tempfile.TemporaryDirectory(
                prefix="repro-trace-smoke-") as tmp:
            source = (_read_source(args.file) if args.file
                      else serve_client.SMOKE_SOURCE)
            try:
                report = serve_client.run_trace_smoke(source,
                                                      cache_dir=tmp)
            except AssertionError as err:
                log.error("trace-smoke: {}".format(err))
                return 1
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    if not args.file:
        log.error("client requires FILE (or --smoke / --obs-smoke / "
                  "--trace-smoke)")
        return 2
    request = {
        "op": args.op,
        "id": "cli",
        "source": _read_source(args.file),
        "name": args.file,
        "open_world": args.open_world,
    }
    if args.analysis:
        request["analysis"] = args.analysis
    if args.trace_id:
        request["trace_id"] = args.trace_id
    if args.debug:
        request["debug"] = True
    if args.port is not None:
        response = serve_client.HttpClient(args.port).query(request)
    else:
        with serve_client.StdioClient(cache_dir=args.cache_dir) as stdio:
            response = stdio.query(request)
    spans = response.pop("spans", None) if args.debug else None
    print(json.dumps(response, indent=2, sort_keys=True))
    if args.debug:
        print("-- trace {} --".format(response.get("trace", "?")))
        print(render_span_tree(spans or []))
    return 0 if response.get("ok") else 1


def cmd_chaos(args) -> int:
    """``repro chaos`` — seeded fault-injection batteries."""
    import json

    from repro.qa import chaos

    if args.list:
        for spec in chaos.built_in_plans():
            print("{:14s} [{}] {}".format(
                spec.name, spec.target, spec.description))
        return 0
    try:
        names = args.plan or [s.name for s in chaos.built_in_plans()]
        reports = []
        all_ok = True
        for name in names:
            report = chaos.run_chaos(name, seed=args.seed)
            reports.append(report)
            all_ok = all_ok and report["ok"]
            log.info("chaos {:14s} seed={} -> {} ({} injected)".format(
                name, args.seed, "ok" if report["ok"] else "VIOLATED",
                report["chaos_injected_total"]))
    except ValueError as err:
        log.error("chaos: {}".format(err))
        return 2
    payload = reports[0] if len(reports) == 1 else reports
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
    else:
        print(text)
    return 0 if all_ok else 1


def cmd_top(args) -> int:
    """``repro top`` — live dashboard over a serving daemon."""
    from repro.obs.top import run_top

    return run_top(args.port, host=args.host, interval=args.interval,
                   once=args.once, iterations=args.iterations)


def cmd_trace(args) -> int:
    """``repro trace`` — inspect the on-disk continuous-trace store."""
    import os

    from repro.obs.sampler import TRACE_STORE_ENV
    from repro.obs.tracestore import DEFAULT_TRACE_DIR, TraceStore
    from repro.obs.traceview import (
        render_rollup,
        render_trace,
        summarize_traces,
    )

    store_dir = (args.store or os.environ.get(TRACE_STORE_ENV)
                 or DEFAULT_TRACE_DIR)
    store = TraceStore(store_dir)
    if args.trace_cmd == "ls":
        summaries = summarize_traces(store.traces())
        if args.limit is not None:
            summaries = summaries[:args.limit]
        if not summaries:
            print("(trace store {} is empty)".format(store_dir))
            return 0
        rows = [[s["trace"], s["records"], s["procs"],
                 ",".join(s["origins"]), ",".join(s["ops"]),
                 "{:.2f}".format(s["ms"]), "ok" if s["ok"] else "ERR"]
                for s in summaries]
        print(render_table(
            ["trace", "recs", "procs", "origins", "ops", "ms", "status"],
            rows, align_left=(0, 3, 4, 6)))
        return 0
    if args.trace_cmd == "show":
        records = store.trace(args.id)
        if not records:
            log.error("trace: no records for {!r} in {}".format(
                args.id, store_dir))
            return 1
        print(render_trace(args.id, records), end="")
        return 0
    if args.trace_cmd == "top":
        records = store.records()
        if not records:
            print("(trace store {} is empty)".format(store_dir))
            return 0
        print(render_rollup(records, by=args.by), end="")
        return 0
    # export: raw records as JSONL, one line each (optionally one trace)
    records = store.trace(args.id) if args.id else store.records()
    for record in records:
        print(json.dumps(record, sort_keys=True))
    return 0


def _read_source(path: str) -> str:
    with open(path) as f:
        return f.read()


def cmd_tables(args) -> int:
    from repro.bench import tables
    from repro.bench.suite import BenchmarkSuite

    failures: List[dict] = []
    if args.programs:
        suite = BenchmarkSuite.from_directory(args.programs)
        # Compile every input eagerly behind a bulkhead: broken files
        # become failure entries and the tables cover the rest.
        for name in suite.names():
            started = time.perf_counter()
            try:
                suite.program(name)
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception as exc:
                failures.append(_failure_entry(
                    name, "compile", exc,
                    seconds=time.perf_counter() - started))
                suite.drop(name)
    else:
        suite = BenchmarkSuite()
    generators = {
        "table4": tables.table4,
        "table5": tables.table5,
        "table6": tables.table6,
        "figure8": tables.figure8,
        "figure9": tables.figure9,
        "figure10": tables.figure10,
        "figure11": tables.figure11,
        "figure12": tables.figure12,
    }
    wanted = args.which or list(generators)
    for key in wanted:
        if key not in generators:
            print("unknown table {!r}; known: {}".format(key, sorted(generators)))
            return 2
    for key in wanted:
        generator = generators[key]
        kwargs = {"engine": args.engine} if key == "table5" else {}
        names = (suite.names() if key in ("table4", "table5")
                 else suite.dynamic_names())
        # One bulkhead per (artifact, program): a program that fails to
        # build or run loses its own rows, and the table covers the rest.
        parts = []
        for name in names:
            started = time.perf_counter()
            try:
                parts.append(generator(suite, names=[name], **kwargs))
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception as exc:
                failures.append(_failure_entry(
                    name, key, exc, seconds=time.perf_counter() - started))
        if parts:
            rows = [row for part in parts for row in part.rows]
            print(tables.TableResult(parts[0].title, parts[0].headers,
                                     rows).text)
            print()
    _emit_failures(failures)
    return 1 if failures else 0


def cmd_fuzz(args) -> int:
    from repro.qa.generator import GenConfig
    from repro.qa.runner import run_fuzz

    config = GenConfig(max_stmts=args.max_stmts)
    out_dir = None if args.no_report else args.out

    def progress(seed: int, oracle) -> None:
        if args.verbose:
            status = "ok" if oracle.ok else "FAIL"
            run = "ran" if oracle.ran else ("trap" if oracle.trapped else "-")
            print("seed {:6d}  {:4s} {}".format(seed, run, status))

    report = run_fuzz(
        count=args.count,
        base_seed=args.seed,
        out_dir=out_dir,
        per_program_seconds=args.per_program_seconds,
        max_steps=args.max_steps,
        reduce=not args.no_reduce,
        config=config,
        progress=progress,
        jobs=args.jobs,
    )
    print(
        "fuzz: {} programs (seeds {}..{}), {} ran clean, {} trapped, "
        "{} failures, {:.1f}s".format(
            report.count,
            report.base_seed,
            report.base_seed + report.count - 1,
            report.ran_clean,
            report.trapped,
            len(report.failures),
            report.duration,
        )
    )
    if report.failures:
        print("distinct failure shapes: {}".format(
            " ".join(report.distinct_digests())))
        for f in report.failures[:10]:
            print("  seed {:6d}  [{}] {}: {}".format(
                f.seed, f.phase, f.kind, f.message[:100]))
            if f.bundle:
                print("            bundle: {}".format(f.bundle))
        if len(report.failures) > 10:
            print("  ... and {} more".format(len(report.failures) - 10))
    if out_dir is not None:
        print("report: {}/fuzz-report.json".format(out_dir))
    return 1 if report.failures else 0


def cmd_corpus_gen(args) -> int:
    from pathlib import Path

    from repro.qa.corpus import CorpusSpec, generate_corpus

    try:
        spec = CorpusSpec(
            seed=args.seed,
            count=args.count,
            shard_size=args.shard_size,
            max_object_types=args.max_object_types,
            max_ref_vars=args.max_ref_vars,
            max_int_vars=args.max_int_vars,
            max_procs=args.max_procs,
            max_stmts=args.max_stmts,
            max_depth=args.max_depth,
            allow_methods=not args.no_methods,
            allow_nil=not args.no_nil,
        )
    except ValueError as err:
        log.error("corpus gen: {}".format(err))
        return 2

    def progress(done: int, total: int) -> None:
        if args.verbose:
            print("shard {}/{}".format(done, total))

    started = time.perf_counter()
    manifest = generate_corpus(spec, Path(args.dir), progress=progress)
    print("corpus: {} programs in {} shards -> {} ({:.1f}s)".format(
        manifest.n_programs, len(manifest.shards), args.dir,
        time.perf_counter() - started))
    return 0


def cmd_corpus_verify(args) -> int:
    from repro.qa.corpus import verify_corpus

    try:
        manifest = verify_corpus(args.dir)
    except (OSError, ValueError) as err:
        log.error("corpus verify: {}".format(err))
        return 1
    print("corpus: ok ({} programs, {} shards, all hashes match)".format(
        manifest.n_programs, len(manifest.shards)))
    return 0


def cmd_corpus_run(args) -> int:
    """Driver wrapper: when a sampled trace context was exported into
    the environment (``REPRO_TRACEPARENT``), the whole run traces under
    it — the driver opens its own scope parented on the remote span,
    re-exports the context so forked shard workers parent under the
    driver, and flushes a ``corpus`` record to the trace store."""
    import os

    from repro.obs import sampler as tracing

    ctx = tracing.context_from_env()
    if ctx is None or not ctx.sampled:
        return _corpus_run_body(args)
    started = time.perf_counter()
    scope = obs.trace_scope(ctx.trace_id, collect=True,
                            remote_parent=(ctx.proc, ctx.span_id))
    with scope:
        with obs.span("corpus.run.driver"):
            tracing.export_context(tracing.current_context())
            try:
                rc = _corpus_run_body(args)
            finally:
                tracing.export_context(ctx)
    store_dir = os.environ.get(tracing.TRACE_STORE_ENV)
    if store_dir:
        from repro.obs.tracestore import TraceStore, make_record

        TraceStore(store_dir).append(make_record(
            scope, origin="corpus", op="corpus.run",
            ms=(time.perf_counter() - started) * 1000.0, ok=rc == 0,
            unit=args.dir))
    return rc


def _corpus_run_body(args) -> int:
    from repro.obs import metrics
    from repro.qa.corpus import run_corpus

    analyses = [a for a in (args.analyses or "").split(",") if a] or None

    def progress(outcome) -> None:
        if args.verbose:
            print("shard {:4d}: {} programs, {} failures, {:.2f}s".format(
                outcome.index, outcome.programs, len(outcome.failures),
                outcome.seconds))

    recording = _HistoryRecording(enabled=not args.no_history)
    with recording:
        try:
            report = run_corpus(
                args.dir,
                jobs=args.jobs,
                analyses=analyses,
                engine=args.engine,
                oracles=args.oracles,
                per_program_seconds=args.per_program_seconds,
                max_steps=args.max_steps,
                max_shards=args.max_shards,
                shard_timeout_seconds=args.shard_timeout,
                max_shard_retries=args.max_shard_retries,
                progress=progress,
            )
        except (OSError, ValueError) as err:
            log.error("corpus run: {}".format(err))
            return 2
        metrics.registry().gauge("corpus.run.programs_per_second").set(
            round(report.throughput(), 3))
    recording.append(args.history, label="corpus")
    print(
        "corpus run: {} programs / {} shards (jobs={}, engine={}), "
        "{} refs, {} local + {} global pairs, {} failures, "
        "{:.1f}s ({:.1f} programs/s)".format(
            report.programs, len(report.shards), report.jobs, report.engine,
            report.references, report.local_pairs, report.global_pairs,
            len(report.failures), report.duration, report.throughput()))
    for entry in report.quarantined:
        log.error("corpus run: quarantined shard {} ({}): {}".format(
            entry["index"], entry["file"], entry["reason"]))
    _emit_failures(report.failures)
    return 1 if (report.failures or report.quarantined) else 0


def cmd_corpus(args) -> int:
    """Dispatch ``repro corpus gen|verify|run``."""
    return args.corpus_func(args)


def _load_profile_target(target: str):
    """A registered benchmark name, or a path to a ``.m3`` file."""
    import os

    from repro.bench import registry

    if not os.path.exists(target) and target in registry.benchmark_names():
        return compile_program(registry.load_source(target), target)
    return _load(target)


def cmd_profile(args) -> int:
    from repro.obs import metrics
    from repro.obs.profile import (
        render_counter_table,
        render_phase_tree,
        tree_check,
    )

    recorder = obs.recorder()
    recorder.reset()
    metrics.registry().reset()
    obs.enable()
    analysis_for_rle = args.analysis or "SMFieldTypeRefs"
    try:
        _profile_phases(args, recorder, analysis_for_rle)
    finally:
        # Leave the process recorder the way library users expect it
        # (recorded spans survive for the --trace flush in main()).
        obs.disable()
    print("profile: {}".format(args.target))
    print()
    print(render_phase_tree(recorder))
    print()
    print(render_counter_table(metrics.registry(), top=args.top))
    if args.check:
        tree_check(recorder, tolerance=args.check_tol)
        log.info("profile: tree check ok "
                 "(children sum to parents within {:.0%})".format(
                     args.check_tol))
    return 0


def _profile_phases(args, recorder, analysis_for_rle: str) -> None:
    with recorder.span("profile", target=args.target):
        with recorder.span("load"):
            program = _load_profile_target(args.target)
        with recorder.span("base"):
            base = program.base()
        for name in ANALYSIS_NAMES:
            with recorder.span("analysis", analysis=name):
                analysis = program.analysis(name, open_world=args.open_world)
                AliasPairCounter(
                    base.program, analysis, engine=args.engine
                ).count()
        with recorder.span("optimize", analysis=analysis_for_rle):
            result = program.pipeline.build(analysis=analysis_for_rle)
        if args.run:
            with recorder.span("execute"):
                program.run(result)
        if args.limit:
            with recorder.span("limit"):
                program.limit_study(result)


# ----------------------------------------------------------------------
# Argument parsing


def _add_engine_flag(parser: argparse.ArgumentParser) -> None:
    from repro.analysis.alias_pairs import DEFAULT_ENGINE, ENGINES

    parser.add_argument(
        "--engine",
        choices=ENGINES,
        default=DEFAULT_ENGINE,
        help="alias-pair counting engine: the partition-based fast path, "
        "the per-pair reference loop, or differential (both + agreement "
        "check)",
    )


def _add_trace_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        metavar="FILE.jsonl",
        default=None,
        help="enable the span recorder and write one JSONL trace record "
        "(every span plus the metric registry) on exit; 'repro trace "
        "show ID --store FILE.jsonl' renders it",
    )


def _add_opt_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--analysis",
        choices=ANALYSIS_NAMES,
        default=None,
        help="run RLE under this TBAA level",
    )
    parser.add_argument("--minv-inline", action="store_true",
                        help="devirtualize and inline before RLE")
    parser.add_argument("--open-world", action="store_true",
                        help="assume unavailable code exists (Section 4)")
    parser.add_argument("--copyprop", action="store_true",
                        help="enable the copy-propagation extension")
    parser.add_argument("--pre", action="store_true",
                        help="enable the PRE-of-loads extension")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Type-Based Alias Analysis (PLDI 1998) reproduction toolkit",
    )
    parser.add_argument("-q", "--quiet", dest="log_quiet", action="store_true",
                        help="only print errors to stderr")
    parser.add_argument("-v", "--verbose", dest="log_verbose",
                        action="store_true",
                        help="also print debug diagnostics to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="parse and type-check a MiniM3 file")
    p.add_argument("file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("ir", help="dump (optionally optimized) IR")
    p.add_argument("file")
    _add_opt_flags(p)
    p.set_defaults(func=cmd_ir)

    p = sub.add_parser("run", help="execute on the simulated machine")
    p.add_argument("file")
    p.add_argument("--stats", action="store_true", help="print counters to stderr")
    _add_opt_flags(p)
    _add_trace_flag(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("alias", help="static alias-pair report")
    p.add_argument("file")
    p.add_argument("--open-world", action="store_true")
    _add_engine_flag(p)
    _add_trace_flag(p)
    p.set_defaults(func=cmd_alias)

    p = sub.add_parser("limit", help="dynamic redundancy limit study")
    p.add_argument("file")
    p.add_argument("--analysis", choices=ANALYSIS_NAMES, default=None)
    _add_trace_flag(p)
    p.set_defaults(func=cmd_limit)

    p = sub.add_parser(
        "bench",
        help="run registered paper benchmarks; 'compare'/'gate' work "
        "the regression ledger",
        description="repro bench [NAME] runs the registered benchmarks "
        "and appends a schema-versioned record (git sha, host, per-phase "
        "wall seconds, counters) to the benchmark ledger.  "
        "'repro bench compare OLD NEW' compares two ledger selections "
        "(files, git shas/refs, or 'latest') with min-of-k best times "
        "inside a median+MAD noise band; 'repro bench gate --baseline "
        "REF' measures HEAD --repeats times, compares against the "
        "baseline, and exits nonzero on regression beyond --tol.",
    )
    p.add_argument("name", nargs="*", default=None, metavar="NAME",
                   help="one benchmark name, or a subcommand: "
                   "compare OLD NEW | gate | serve")
    p.add_argument("--analysis", choices=ANALYSIS_NAMES, default=None)
    p.add_argument("--history", metavar="FILE.jsonl",
                   default="BENCH_history.jsonl",
                   help="benchmark ledger to append to / compare from "
                   "(default BENCH_history.jsonl)")
    p.add_argument("--no-history", action="store_true",
                   help="do not append a run record to the ledger")
    p.add_argument("--only", metavar="NAME[,NAME...]", default=None,
                   help="restrict a suite run (or gate measurement) to "
                   "these benchmarks")
    p.add_argument("--baseline", metavar="REF", default=None,
                   help="gate: baseline records — a ledger file, a git "
                   "sha/ref, or 'latest'")
    p.add_argument("--repeats", type=int, default=1,
                   help="gate: fresh measurement repeats (min-of-k, "
                   "default 1)")
    p.add_argument("--tol", "--tolerance", dest="tolerance", type=float,
                   default=None,
                   help="relative slowdown that counts as a regression "
                   "(default 0.25 = 25%%)")
    p.add_argument("--mad-k", type=float, default=None,
                   help="noise band: new best must also exceed the old "
                   "median by this many MADs (default 3.0)")
    p.add_argument("--min-seconds", type=float, default=None,
                   help="phases whose best is below this never gate "
                   "(default 0.005)")
    p.add_argument("--md", metavar="FILE", default=None,
                   help="compare/gate: also write the report as markdown")
    p.add_argument("--corpus", metavar="DIR", default=None,
                   help="gate: also time a single-process corpus run over "
                   "this corpus each repeat, so its corpus.run phase is "
                   "gated alongside the benchmarks")
    p.add_argument("--corpus-shards", type=int, default=None, metavar="N",
                   help="gate: limit --corpus to its first N shards")
    p.add_argument("--serve", action="store_true",
                   help="gate: also run the serve warm-vs-cold benchmark "
                   "each repeat, gating the serve.cold/serve.warm phases "
                   "and enforcing --min-speedup outright")
    p.add_argument("--min-speedup", type=float, default=None, metavar="X",
                   help="serve/gate --serve: fail unless warm served "
                   "throughput reaches X times the cold single-shot "
                   "throughput (default 5.0)")
    _add_trace_flag(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("tables", help="regenerate the paper's tables/figures")
    p.add_argument("which", nargs="*", default=None,
                   help="e.g. table5 figure8 (default: all)")
    p.add_argument("--programs", metavar="DIR", default=None,
                   help="generate the tables over every .m3 file in DIR "
                   "instead of the registered benchmarks")
    _add_engine_flag(p)
    _add_trace_flag(p)
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser(
        "fuzz",
        help="cross-check the analyses on generated programs",
        description="Generate seeded, type-correct MiniM3 programs and "
        "run the soundness/consistency oracles over each: analysis "
        "refinement, open-world conservatism, fast-vs-reference engine "
        "agreement, dynamic (traced) soundness and cache coherence.  "
        "Failures are isolated per seed, delta-debugged to minimal "
        "reproducers and written as crash bundles.",
    )
    p.add_argument("--count", type=int, default=200,
                   help="number of programs to generate (default 200)")
    p.add_argument("--seed", type=int, default=0,
                   help="base seed; program i uses seed+i (default 0)")
    p.add_argument("--out", default="benchmarks/results/fuzz",
                   help="directory for crash bundles and fuzz-report.json")
    p.add_argument("--no-report", action="store_true",
                   help="do not write bundles or the JSON report")
    p.add_argument("--no-reduce", action="store_true",
                   help="skip delta-debugging of failing programs")
    p.add_argument("--per-program-seconds", type=float,
                   default=guards.PER_PROGRAM_SECONDS,
                   help="wall-clock bulkhead per program "
                   "(default %(default)g)")
    p.add_argument("--max-steps", type=int, default=guards.MAX_STEPS,
                   help="interpreter step budget per traced run")
    p.add_argument("--max-stmts", type=int, default=22,
                   help="statement bound for generated programs")
    p.add_argument("--jobs", type=int, default=None, metavar="N",
                   help="worker processes; seeds fan out in contiguous "
                   "chunks with per-seed fault isolation and merge "
                   "deterministically by seed (default: cpu count; "
                   "--verbose per-seed lines need --jobs 1)")
    p.add_argument("-v", "--verbose", action="store_true",
                   help="print one line per seed")
    _add_trace_flag(p)
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser(
        "corpus",
        help="generate and drive sharded program corpora",
        description="repro corpus gen renders a seeded, content-hashed "
        "corpus of generated MiniM3 programs into sharded JSON files; "
        "verify re-checks every shard hash; run drives the Table 5 count "
        "(and optionally the soundness oracles) over the shards with a "
        "multiprocessing pool and per-shard fault bulkheads, appending a "
        "throughput record to the benchmark ledger.",
    )
    corpus_sub = p.add_subparsers(dest="corpus_cmd", required=True,
                                  metavar="{gen,verify,run}")

    cg = corpus_sub.add_parser("gen", help="render a corpus to disk")
    cg.add_argument("dir", help="output directory for shards + manifest")
    cg.add_argument("--count", type=int, default=1000,
                    help="number of programs (default 1000)")
    cg.add_argument("--seed", type=int, default=0,
                    help="base seed; program i uses seed+i (default 0)")
    cg.add_argument("--shard-size", type=int, default=100,
                    help="programs per shard file (default 100)")
    cg.add_argument("--max-object-types", type=int, default=4)
    cg.add_argument("--max-ref-vars", type=int, default=4)
    cg.add_argument("--max-int-vars", type=int, default=3)
    cg.add_argument("--max-procs", type=int, default=3)
    cg.add_argument("--max-stmts", type=int, default=22,
                    help="statement bound per program (default 22)")
    cg.add_argument("--max-depth", type=int, default=2)
    cg.add_argument("--no-methods", action="store_true")
    cg.add_argument("--no-nil", action="store_true")
    cg.add_argument("-v", "--verbose", action="store_true",
                    help="print one line per shard")
    cg.set_defaults(func=cmd_corpus, corpus_func=cmd_corpus_gen)

    cv = corpus_sub.add_parser("verify", help="hash-check every shard")
    cv.add_argument("dir")
    cv.set_defaults(func=cmd_corpus, corpus_func=cmd_corpus_verify)

    cr = corpus_sub.add_parser(
        "run", help="sharded Table 5 / oracle driver")
    cr.add_argument("dir")
    cr.add_argument("--jobs", type=int, default=None, metavar="N",
                    help="shard worker processes (default: cpu count)")
    _add_engine_flag(cr)
    cr.add_argument("--analyses", metavar="NAME[,NAME...]", default=None,
                    help="comma-separated analyses (default: all three)")
    cr.add_argument("--oracles", action="store_true",
                    help="also run the soundness oracle battery per "
                    "program (regenerates each seed and cross-checks the "
                    "stored hash first)")
    cr.add_argument("--per-program-seconds", type=float,
                    default=guards.PER_PROGRAM_SECONDS,
                    help="wall-clock bulkhead per program "
                    "(default %(default)g)")
    cr.add_argument("--max-steps", type=int, default=guards.MAX_STEPS,
                    help="interpreter step budget for --oracles runs")
    cr.add_argument("--max-shards", type=int, default=None, metavar="N",
                    help="only process the first N shards")
    cr.add_argument("--shard-timeout", type=float, default=None,
                    metavar="S", dest="shard_timeout",
                    help="watchdog: retry a shard whose worker hangs or "
                    "dies for S seconds, then quarantine it (jobs > 1 "
                    "only; default: no watchdog)")
    cr.add_argument("--max-shard-retries", type=int, default=1, metavar="N",
                    help="watchdog resubmissions before a shard is "
                    "quarantined (default 1)")
    cr.add_argument("--history", metavar="FILE.jsonl",
                    default="BENCH_history.jsonl",
                    help="ledger to append the throughput record to")
    cr.add_argument("--no-history", action="store_true",
                    help="do not append a ledger record")
    cr.add_argument("-v", "--verbose", action="store_true",
                    help="print one line per shard")
    _add_trace_flag(cr)
    cr.set_defaults(func=cmd_corpus, corpus_func=cmd_corpus_run)

    p = sub.add_parser(
        "serve",
        help="long-running analysis daemon (JSONL stdio + localhost HTTP)",
        description="Keep analyses warm and answer batched alias / "
        "tables / limit / facts queries without recompiling: each "
        "request line on stdin (a JSON object, or an array for a batch) "
        "produces one response line on stdout.  --http additionally "
        "binds a localhost HTTP shim (POST /v1/query, GET /v1/ping, "
        "GET /v1/stats, GET /v1/metrics in Prometheus text, GET "
        "/v1/requests for the newest journalled requests; see repro top). "
        "Derived facts persist in a content-hashed, "
        "versioned on-disk store, so an edited module only invalidates "
        "its own partition and a restarted daemon answers warm.",
    )
    p.add_argument("mode", nargs="?", choices=("warmup",), default=None,
                   help="optional subcommand: 'warmup' pre-populates the "
                   "fact store from --corpus DIR (largest modules first, "
                   "stopping at the size cap) instead of serving")
    p.add_argument("--stdio", action="store_true", default=True,
                   help="serve the JSONL protocol on stdio (default)")
    p.add_argument("--no-stdio", dest="stdio", action="store_false",
                   help="HTTP only: print 'PORT n' and block until a "
                   "shutdown request")
    p.add_argument("--http", type=int, default=None, metavar="PORT",
                   nargs="?", const=0,
                   help="also serve HTTP on 127.0.0.1:PORT (0 or no "
                   "value = OS-assigned)")
    p.add_argument("--cache-dir", default=".repro-factcache",
                   help="on-disk fact store directory "
                   "(default .repro-factcache)")
    p.add_argument("--no-cache", action="store_true",
                   help="keep facts in memory only")
    p.add_argument("--cache-max-bytes", type=int,
                   default=None, metavar="N",
                   help="fact store size cap before LRU eviction "
                   "(default 256 MiB; 0 = unbounded)")
    p.add_argument("--max-sessions", type=int, default=64, metavar="N",
                   help="warm in-memory module sessions (default 64)")
    p.add_argument("--differential", action="store_true",
                   help="pin every served count against the cold "
                   "reference engine (slower; for validation)")
    p.add_argument("--deadline-seconds", type=float, default=None,
                   metavar="S",
                   help="per-request wall-clock budget; an expired "
                   "request answers a typed 'deadline_exceeded' error "
                   "(default: unbounded)")
    p.add_argument("--drain-timeout", type=float, default=30.0, metavar="S",
                   help="how long SIGTERM/SIGINT drain waits for "
                   "in-flight requests before exiting (default 30)")
    p.add_argument("--slo-ms", type=float, default=250.0, metavar="MS",
                   help="per-request latency objective backing the "
                   "serve.slo.ok/breach counters (default 250)")
    p.add_argument("--slow-ms", type=float, default=None, metavar="MS",
                   help="requests slower than this are written to "
                   "--access-log (default: the --slo-ms value)")
    p.add_argument("--access-log", default=None, metavar="FILE.jsonl",
                   help="append slow-request JSONL records here "
                   "(off unless given)")
    p.add_argument("--access-log-sample", type=int, default=1, metavar="N",
                   help="log every Nth slow request (default 1 = all)")
    p.add_argument("--trace-sample-rate", type=float,
                   default=SERVE_SAMPLE_RATE, metavar="R",
                   help="always-on head-sampling rate in [0, 1]: each "
                   "trace id deterministically keeps or drops its whole "
                   "trace (default {})".format(SERVE_SAMPLE_RATE))
    p.add_argument("--trace-store", default=None, metavar="DIR",
                   help="flush sampled trace records into this bounded "
                   "on-disk store (see 'repro trace'; default: "
                   "$REPRO_TRACE_STORE, else sampling decides span "
                   "collection only)")
    p.add_argument("--corpus", default=None, metavar="DIR",
                   help="corpus manifest directory for 'warmup'")
    p.add_argument("--max-programs", type=int, default=None, metavar="N",
                   help="warm at most N programs (warmup only)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "client",
        help="query a serve daemon (or run the serve smoke battery)",
        description="repro client FILE sends one query for FILE's "
        "source: over HTTP when --port is given, else to a freshly "
        "spawned stdio daemon.  repro client --smoke boots a daemon "
        "with both transports, fires a batched query set over each, "
        "asserts differential equality and clean shutdown, and prints "
        "a JSON report (this is what 'make serve-smoke' runs).",
    )
    p.add_argument("file", nargs="?", default=None,
                   help="MiniM3 source file to query about")
    p.add_argument("--op", choices=("alias", "tables", "limit", "facts"),
                   default="tables", help="query operation (default tables)")
    p.add_argument("--analysis", choices=ANALYSIS_NAMES, default=None,
                   help="analysis for --op alias/limit")
    p.add_argument("--open-world", action="store_true")
    p.add_argument("--port", type=int, default=None, metavar="PORT",
                   help="query a running daemon's HTTP shim on this port "
                   "instead of spawning one")
    p.add_argument("--cache-dir", default=".repro-factcache",
                   help="fact store for a spawned stdio daemon")
    p.add_argument("--smoke", action="store_true",
                   help="run the two-transport smoke battery and exit")
    p.add_argument("--obs-smoke", action="store_true",
                   help="run the live-observability battery (traced + "
                   "debug queries, /v1/metrics self-lint, journal, "
                   "access log, repro top --once) and exit")
    p.add_argument("--trace-smoke", action="store_true",
                   help="run the continuous-tracing battery (one trace "
                   "propagated across a subprocess daemon and forked "
                   "corpus workers, flushed to a trace store and "
                   "reconstructed as a single tree by repro trace) "
                   "and exit")
    p.add_argument("--debug", action="store_true",
                   help="request the per-query span tree and print it "
                   "as a phase breakdown after the response")
    p.add_argument("--trace-id", default=None, metavar="ID",
                   help="client-chosen trace id to propagate (default: "
                   "the daemon mints one)")
    p.set_defaults(func=cmd_client)

    p = sub.add_parser(
        "chaos",
        help="seeded fault-injection batteries over serve and corpus",
        description="Run the daemon or corpus pipeline under a named "
        "FaultPlan (flaky fact store, corrupted partitions, crashing "
        "compiles, stalled handlers, dropped connections, killed "
        "workers) and assert the core invariant: every answer that "
        "leaves the system is differential-pinned correct or a typed "
        "error — never silently wrong, never a crash.  Deterministic "
        "per (--plan, --seed); prints a JSON report and exits nonzero "
        "on any violation.",
    )
    p.add_argument("--plan", action="append", default=None, metavar="NAME",
                   help="built-in plan to run (repeatable; default: all; "
                   "see --list)")
    p.add_argument("--seed", type=int, default=0,
                   help="fault-plan seed (default 0)")
    p.add_argument("--list", action="store_true",
                   help="list the built-in plans and exit")
    p.add_argument("--out", default=None, metavar="FILE.json",
                   help="write the JSON report to FILE instead of stdout")
    p.set_defaults(func=cmd_chaos)

    p = sub.add_parser(
        "top",
        help="live terminal dashboard over a serving daemon",
        description="Poll a daemon's /v1/metrics, /v1/requests and "
        "/v1/ping endpoints and render throughput, per-op latency "
        "quantiles (exact over the last hour), SLO ok/breach counts, cache "
        "hit rates, degraded/draining state and the slowest recent "
        "traces.  --once renders a single frame and exits (the CI "
        "mode); live mode refreshes every --interval seconds until "
        "Ctrl-C.",
    )
    p.add_argument("--port", type=int, required=True, metavar="PORT",
                   help="the daemon's HTTP port (repro serve --http)")
    p.add_argument("--host", default="127.0.0.1",
                   help="daemon host (default 127.0.0.1)")
    p.add_argument("--interval", type=float, default=2.0, metavar="S",
                   help="seconds between polls in live mode (default 2)")
    p.add_argument("--once", action="store_true",
                   help="render one frame and exit")
    p.add_argument("--iterations", type=int, default=None, metavar="N",
                   help="stop after N frames (default: run until Ctrl-C)")
    p.set_defaults(func=cmd_top)

    p = sub.add_parser(
        "trace",
        help="inspect the continuous-tracing store (ls/show/top/export)",
        description="Read the bounded on-disk trace store that serving "
        "daemons and traced batch runs flush sampled span trees into "
        "(repro serve --trace-store).  ls lists one summary line per "
        "trace; show ID stitches one trace's records — client, daemon, "
        "forked corpus workers — into a single parent-linked span tree "
        "with process boundaries marked; top aggregates total/self "
        "milliseconds per phase (or per op) across every stored record; "
        "export dumps raw records as JSONL.  --store also accepts the "
        "single-record file a --trace FILE.jsonl run writes.",
    )
    trace_sub = p.add_subparsers(dest="trace_cmd", required=True,
                                 metavar="{ls,show,top,export}")

    def _store_flag(sp) -> None:
        sp.add_argument("--store", default=None, metavar="DIR",
                        help="trace store directory, or one --trace "
                        "FILE.jsonl (default: "
                        "$REPRO_TRACE_STORE, else .repro-traces)")

    tl = trace_sub.add_parser("ls", help="one summary line per trace")
    _store_flag(tl)
    tl.add_argument("--limit", type=int, default=None, metavar="N",
                    help="show at most N traces (newest first)")
    tl.set_defaults(func=cmd_trace)

    tw = trace_sub.add_parser(
        "show", help="render one trace's cross-process span tree")
    tw.add_argument("id", help="trace id (see 'repro trace ls')")
    _store_flag(tw)
    tw.set_defaults(func=cmd_trace)

    tt = trace_sub.add_parser(
        "top", help="total/self time rollup across stored records")
    tt.add_argument("--by", choices=("phase", "op"), default="phase",
                    help="group by span name ('phase', with self time) "
                    "or by record op (default phase)")
    _store_flag(tt)
    tt.set_defaults(func=cmd_trace)

    te = trace_sub.add_parser(
        "export", help="dump trace records as JSONL")
    te.add_argument("id", nargs="?", default=None,
                    help="only this trace (default: every record)")
    _store_flag(te)
    te.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "profile",
        help="phase-time tree and top metric counts for one program",
        description="Compile TARGET (a .m3 file or a registered benchmark "
        "name), build every analysis level, run the Table 5 alias-pair "
        "count and the RLE pipeline under the span recorder, then print "
        "a phase-time tree (span times, share of total) and the top-N "
        "counter table.  --trace additionally writes the JSONL trace "
        "record.",
    )
    p.add_argument("target",
                   help="path to a .m3 file, or a registered benchmark name")
    p.add_argument("--analysis", choices=ANALYSIS_NAMES, default=None,
                   help="TBAA level for the optimize phase")
    p.add_argument("--open-world", action="store_true")
    p.add_argument("--run", action="store_true",
                   help="also execute the optimized program (adds an "
                   "'execute' phase with run.interp/run.cachesim "
                   "children)")
    p.add_argument("--limit", action="store_true",
                   help="also run the dynamic limit study (adds a "
                   "'limit' phase with limit.replay/limit.classify "
                   "children)")
    p.add_argument("--top", type=int, default=20,
                   help="rows in the counter table (default 20)")
    p.add_argument("--check", action="store_true",
                   help="assert children sum to parents within tolerance "
                   "(used by 'make profile-smoke')")
    p.add_argument("--check-tol", type=float, default=0.25,
                   help="--check tolerance as a fraction of each parent "
                   "span (default 0.25; raise on loaded CI hosts)")
    _add_engine_flag(p)
    _add_trace_flag(p)
    p.set_defaults(func=cmd_profile)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # ``fuzz -v`` shares the short flag with the root parser; the root
    # flags use distinct dests so the subparser default cannot clobber
    # them.
    log.set_verbosity(quiet=getattr(args, "log_quiet", False),
                      verbose=getattr(args, "log_verbose", False))
    trace_path = getattr(args, "trace", None)
    if trace_path is not None:
        from repro.obs import metrics
        obs.reset()
        metrics.registry().reset()
        obs.enable()
    try:
        return _dispatch(args, trace_path)
    except CompileError as err:
        log.error("error: {}".format(err))
        return 1
    except FileNotFoundError as err:
        log.error("error: {}".format(err))
        return 1
    except ResourceLimitError as err:
        log.error("error: resource limit exceeded ({}): {}".format(err.kind, err))
        return 1
    except M3RuntimeError as err:
        log.error("error: runtime error: {}".format(err))
        return 1
    except KeyboardInterrupt:
        # Conventional 128+SIGINT, without a traceback.
        log.error("interrupted")
        return 130
    except BrokenPipeError:
        # Downstream pager/head closed the pipe: exit quietly.  Redirect
        # stdout to devnull so interpreter shutdown does not raise again
        # while flushing.
        import os

        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except OSError:
            pass
        return 0


def _dispatch(args, trace_path: Optional[str]) -> int:
    """Run the subcommand; flush the trace record even when it fails."""
    if trace_path is None:
        return args.func(args)
    started = time.perf_counter()
    rc = 1
    try:
        rc = args.func(args)
        return rc
    finally:
        from repro.obs import jsonl
        from repro.obs.tracestore import batch_record

        obs.disable()
        record = batch_record(args.command,
                              (time.perf_counter() - started) * 1000.0,
                              ok=rc == 0)
        with open(trace_path, "w", encoding="utf-8") as handle:
            handle.write(jsonl.encode(record) + "\n")
        log.info("trace: wrote {} (trace {}, {} spans)".format(
            trace_path, record["trace"], len(record["spans"])))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
