"""``serve_read`` and ``serve_edit``: closed-loop clients against the daemon.

Set-up starts ``repro serve --no-stdio --http 0`` with a fresh fact store
and trace store and primes it with a ``tables`` query (both worlds, so
all six configurations) for each of 100 modules: the 10 bundled
programs and 90 generated from the seed.  The segment then runs
``CLIENTS`` threads for ``--seconds``, each a closed loop over its own
persistent HTTP/1.1 connection: a client sends its next request when the
previous answer arrives.  Answers are kept and checked after the daemon
has shut down, against ``AliasPairCounter(engine="reference")`` rather
than the bulk matrices the daemon answers from.

``serve_read``: both clients send ``tables`` or ``alias`` (seeded
analysis and world), half each, on a module drawn uniformly from the
100.  That working set is larger than the daemon's 64 warm sessions, so
the read path covers session hits and fact-store restores; after
priming nothing compiles.

``serve_edit``: client 0 sends ``tables`` for a bundled program with one
``:= <int>;`` literal rewritten to a value no earlier request used, so
every request misses: one compile, six configuration builds and the
store writes.  Client 1 reads the 10 bundled programs meanwhile, and its
reads queue behind the session lock the compile holds.  The op is the
edit: a median over a mix of edits and reads would sit on the boundary
between the two and move with their ratio.  The reads' own latency is
per-layer ``serve.read_ms.p50``/``.p90``, which ``--compare`` also gates.
"""

import http.client
import itertools
import json
import random
import re
import select
import subprocess
import sys
import threading
import time
from collections import namedtuple
from pathlib import Path
from typing import Dict, List, Tuple

from common import (SEED_STRIDE, Run, child_env, layer_ms, median_setup,
                    quantile, span_times, vm_hwm_mb)
from repro import compile_program
from repro.analysis import ANALYSIS_NAMES, AliasPairCounter
from repro.bench import registry
from repro.obs.top import parse_prom
from repro.qa.generator import GenConfig, generate_program

CLIENTS = 2
GENERATED = 90
SMOKE_GENERATED = 2
WORLDS = (False, True)
#: Seconds the daemon gets to print its port, and a request to answer.
START_TIMEOUT = 60.0
REQUEST_TIMEOUT = 120.0

#: The literals ``serve_edit`` rewrites.  The self-test in test_e2e.py
#: checks that rewriting any of them leaves the reference Table 5 answer
#: unchanged, so the unedited program's answer is the oracle.
EDIT_SITE = re.compile(r":=\s*(-?\d+)\s*;")
#: Edited literals count up from here, above every literal of the bundled
#: programs, so every edit is new source.
EDIT_BASE = 1_000_000_001

Sample = namedtuple("Sample", "kind module query start end response error")
Answers = Dict[Tuple[str, bool], Tuple[int, int, int]]


class Daemon:
    """One ``repro serve`` subprocess over its own store directories."""

    def __init__(self, work: Path) -> None:
        work.mkdir(parents=True)
        self.port = None
        self.log = open(work / "serve.log", "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "-q", "serve", "--no-stdio",
             "--http", "0", "--cache-dir", str(work / "cache"),
             "--trace-store", str(work / "traces")],
            stdout=subprocess.PIPE, stderr=self.log, text=True,
            env=child_env(), cwd=str(work))
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [],
                                        START_TIMEOUT)
            line = self.proc.stdout.readline() if ready else ""
            if not line.startswith("PORT "):
                raise RuntimeError(
                    "daemon did not report its port: {!r}".format(line))
            self.port = int(line.split()[1])
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        """Ask for a graceful shutdown, then make sure the process ended."""
        if self.proc.poll() is None and self.port is None:
            self.proc.terminate()
        elif self.proc.poll() is None:
            client = Client(self.port)
            try:
                client.query({"op": "shutdown"})
            except (OSError, http.client.HTTPException, ValueError):
                self.proc.terminate()
            finally:
                client.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


class Client:
    """One HTTP/1.1 connection, kept open across requests."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.conn = None

    def _send(self, method: str, path: str, body=None) -> bytes:
        if self.conn is None:
            self.conn = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=REQUEST_TIMEOUT)
        try:
            self.conn.request(method, path, body=body,
                              headers={"Content-Type": "application/json"})
            return self.conn.getresponse().read()
        except (OSError, http.client.HTTPException):
            self.close()
            raise

    def query(self, payload):
        return json.loads(self._send("POST", "/v1/query",
                                     json.dumps(payload).encode()))

    def get(self, path: str) -> str:
        return self._send("GET", path).decode()

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


def modules(seed: int, smoke: bool) -> List[Tuple[str, str]]:
    """The bundled programs first, then the seed's generated ones."""
    out = [(n, registry.load_source(n)) for n in registry.benchmark_names()]
    config = GenConfig()
    for i in range(SMOKE_GENERATED if smoke else GENERATED):
        program = generate_program(seed * SEED_STRIDE + i, config)
        out.append((program.name, program.render()))
    return out


def edit_sites(mods) -> List[Tuple[int, int, int]]:
    """``(module, start, end)`` of every literal :data:`EDIT_SITE`
    matches in the bundled programs."""
    return [(m, match.start(1), match.end(1))
            for m in range(len(registry.benchmark_names()))
            for match in EDIT_SITE.finditer(mods[m][1])]


def edit(source: str, start: int, end: int, value: int) -> str:
    return source[:start] + str(value) + source[end:]


def reference_answers(source: str, name: str) -> Answers:
    """Table 5 counts for all six configurations, reference engine."""
    program = compile_program(source, name)
    ir = program.base().program
    return {
        (analysis, world): AliasPairCounter(
            ir, program.analysis(analysis, open_world=world),
            engine="reference").count().counts()
        for world in WORLDS for analysis in ANALYSIS_NAMES
    }


def table_rows(answers: Answers) -> List[dict]:
    """The rows a ``tables`` answer with ``worlds: both`` must carry."""
    return [
        {"analysis": analysis, "open_world": world,
         "references": answers[analysis, world][0],
         "local_pairs": answers[analysis, world][1],
         "global_pairs": answers[analysis, world][2]}
        for world in WORLDS for analysis in ANALYSIS_NAMES
    ]


def answer_ok(sample: Sample, answers: Answers) -> bool:
    response = sample.response
    if response is None or not response.get("ok"):
        return False
    body = response["result"]
    if sample.kind in ("tables", "edit"):
        return body.get("rows") == table_rows(answers)
    analysis, world = sample.query
    got = (body.get("analysis"), body.get("open_world"),
           (body.get("references"), body.get("local_pairs"),
            body.get("global_pairs")))
    return got == (analysis, world, answers[analysis, world])


# ----------------------------------------------------------------------
# Load


def read_requests(mods, indices: List[int], rng: random.Random):
    def make():
        m = rng.choice(indices)
        name, source = mods[m]
        if rng.random() < 0.5:
            return "tables", m, None, {"op": "tables", "source": source,
                                       "name": name, "worlds": "both"}
        query = (rng.choice(ANALYSIS_NAMES), rng.random() < 0.5)
        return "alias", m, query, {"op": "alias", "source": source,
                                   "name": name, "analysis": query[0],
                                   "open_world": query[1]}
    return make


def edit_requests(mods, rng: random.Random):
    """Edits of every site once per round, in a seeded order: programs
    differ in size, so a uniform draw would give each seed its own mix
    of slow and fast edits, and its own p90."""
    sites = edit_sites(mods)
    values = itertools.count(EDIT_BASE)
    pending: List[Tuple[int, int, int]] = []

    def make():
        if not pending:
            pending.extend(rng.sample(sites, len(sites)))
        m, start, end = pending.pop()
        name, source = mods[m]
        return "edit", m, None, {
            "op": "tables", "source": edit(source, start, end, next(values)),
            "name": name, "worlds": "both"}
    return make


def client_loop(port: int, make, deadline: float, out: List[Sample],
                debug: bool) -> None:
    client = Client(port)
    try:
        while time.perf_counter() < deadline:
            kind, module, query, payload = make()
            payload["debug"] = debug
            started = time.perf_counter()
            try:
                response, error = client.query(payload), None
            except (OSError, http.client.HTTPException, ValueError) as exc:
                response, error = None, repr(exc)
            out.append(Sample(kind, module, query, started,
                              time.perf_counter(), response, error))
    finally:
        client.close()


def closed_loop(port: int, makers, seconds: float, debug: bool):
    """Run one client thread per request maker; returns (samples, wall)."""
    outs: List[List[Sample]] = [[] for _ in makers]
    started = time.perf_counter()
    threads = [
        threading.Thread(target=client_loop, daemon=True,
                         args=(port, make, started + seconds, out, debug))
        for make, out in zip(makers, outs)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(seconds + REQUEST_TIMEOUT)
        if thread.is_alive():
            raise RuntimeError("a client did not finish its last request")
    samples = [s for out in outs for s in out]
    return samples, max(s.end for s in samples) - started


def prime(port: int, mods) -> None:
    client = Client(port)
    try:
        answers = client.query([
            {"op": "tables", "source": source, "name": name, "worlds": "both"}
            for name, source in mods])
    finally:
        client.close()
    bad = [a for a in answers if not a.get("ok")]
    if bad:
        raise RuntimeError("priming failed: {}".format(bad[0]))


def scrape(port: int):
    """The ``stats`` op and the parsed ``/v1/metrics`` body."""
    client = Client(port)
    try:
        return (client.query({"op": "stats"})["result"],
                parse_prom(client.get("/v1/metrics")))
    finally:
        client.close()


# ----------------------------------------------------------------------
# The workloads


def run(opts, edits: bool) -> Run:
    result = Run()
    mods = modules(opts.seed, opts.smoke)

    def setup(i):
        daemon = Daemon(opts.work / "daemon-{}".format(i))
        try:
            prime(daemon.port, mods)
        except BaseException:
            daemon.close()
            raise
        return daemon

    result.end_to_end["setup_s"], daemon = median_setup(setup, Daemon.close)
    try:
        rngs = [random.Random("{}-{}".format(opts.seed, k))
                for k in range(CLIENTS)]
        if edits:
            makers = [edit_requests(mods, rngs[0]),
                      read_requests(mods, list(range(10)), rngs[1])]
        else:
            makers = [read_requests(mods, list(range(len(mods))), rng)
                      for rng in rngs]
        before = scrape(daemon.port)
        samples, wall = closed_loop(daemon.port, makers, opts.seconds, False)
        after = scrape(daemon.port)
        # serve_edit's op is the edit; the reads are load on it, and
        # their latency is reported per layer (serve.read_ms.*).
        timed = [s for s in samples if s.kind == "edit"] if edits else samples
        result.latencies([s.end - s.start for s in timed], wall)
        record_layers(result, samples, before, after)
        checked = list(samples)
        if opts.trace:
            traced, _ = closed_loop(daemon.port, makers, opts.seconds, True)
            checked += traced
            record_spans(result, samples, traced)
        result.end_to_end["peak_rss_mb"] = vm_hwm_mb(daemon.proc.pid)
    finally:
        daemon.close()
    started = time.perf_counter()
    oracle = {m: reference_answers(mods[m][1], mods[m][0])
              for m in sorted({s.module for s in checked})}
    for s in checked:
        result.check(answer_ok(s, oracle[s.module]), "{} on {}: {:.300}".format(
            s.kind, mods[s.module][0], str(s.error or s.response)))
    result.info["verify_s"] = time.perf_counter() - started
    return result


def run_read(opts) -> Run:
    return run(opts, edits=False)


def run_edit(opts) -> Run:
    return run(opts, edits=True)


# ----------------------------------------------------------------------
# Per-layer attribution


def mean_ms(samples: List[Sample]) -> float:
    return 1000.0 * sum(s.end - s.start for s in samples) / len(samples)


def record_layers(result: Run, samples: List[Sample], before, after) -> None:
    """Client timers and the daemon's counters around the segment.

    The daemon labels its request timer by op only, and edits are
    ``tables`` requests, so on ``serve_edit`` ``serve.handle_ms.tables``
    averages edits and reads while ``serve.client_ms.tables`` is reads
    only; ``serve.transport_ms`` compares all requests with all requests.
    """
    for kind in ("tables", "alias", "edit"):
        of_kind = [s for s in samples if s.kind == kind]
        result.per_layer["serve.client_ms." + kind] = (
            mean_ms(of_kind) if of_kind else 0.0)
    reads = [1000.0 * (s.end - s.start) for s in samples if s.kind != "edit"]
    result.per_layer["serve.read_ms.p50"] = quantile(reads, 50)
    result.per_layer["serve.read_ms.p90"] = quantile(reads, 90)
    result.info["reads"] = len(reads)
    handled_ms = handled = 0.0
    for op in ("tables", "alias"):
        labels = (("op", op),)
        ms = (after[1].get(("repro_serve_request_ms_sum", labels), 0.0)
              - before[1].get(("repro_serve_request_ms_sum", labels), 0.0))
        n = (after[1].get(("repro_serve_request_ms_count", labels), 0.0)
             - before[1].get(("repro_serve_request_ms_count", labels), 0.0))
        result.per_layer["serve.handle_ms." + op] = ms / n if n else 0.0
        handled_ms += ms
        handled += n
    result.per_layer["serve.transport_ms"] = (
        mean_ms(samples) - handled_ms / handled)

    def delta(name: str) -> float:
        return after[0]["counters"][name] - before[0]["counters"][name]

    lookups = delta("serve.session.hit") + delta("serve.session.miss")
    result.per_layer["serve.session.hit_ratio"] = (
        delta("serve.session.hit") / lookups)
    names = ("serve.session.compile", "serve.session.evict",
             "serve.factcache.hit", "serve.factcache.miss",
             "serve.factcache.store", "serve.facts.config_hit",
             "serve.facts.config_build")
    result.per_op({name: delta(name) for name in names}, len(samples))
    result.per_op({"serve.factcache.store_bytes":
                   after[0]["store_bytes"] - before[0]["store_bytes"]},
                  len(samples))


#: The layers a request can reach (see ``common.SPAN_LAYERS``).
LAYERS = ("lang.parse.ms", "lang.typecheck.ms", "opt.base.ms",
          "analysis.build.ms", "analysis.count.ms")

#: The daemon's own layers, reported by self time.
SERVE_SPANS = ("serve.request.tables", "serve.request.alias",
               "serve.factcache.load", "serve.factcache.store",
               "serve.facts.rebuild", "serve.facts.config_build")


def record_spans(result: Run, plain: List[Sample],
                 traced: List[Sample]) -> None:
    """Per-request layer times from the ``debug: true`` span trees of the
    traced segment.  Span ids are unique within the daemon process; each
    request's span times are moved onto the segment's clock."""
    epoch = min(s.start for s in traced)
    for s in traced:
        for span in (s.response or {}).get("spans", []):
            result.spans.append(dict(
                span, start_ms=span["start_ms"] + 1000.0 * (s.start - epoch)))
    _, own = span_times(result.spans)
    ops = len(traced)
    result.per_op(layer_ms(result.spans, LAYERS), ops)
    result.per_op({"span.{}.self_ms".format(name): own.get(name, 0.0)
                   for name in SERVE_SPANS}, ops)
    result.per_layer["trace.overhead_pct"] = 100.0 * (
        mean_ms(traced) / mean_ms(plain) - 1.0)
