"""The long-running analysis daemon: JSONL-on-stdio + localhost HTTP.

Both transports speak the same :mod:`repro.serve.protocol` payloads and
dispatch into one :class:`Daemon`:

* **stdio** — each input line is one request object or batch array;
  each produces exactly one output line.  EOF or a ``shutdown`` op ends
  the loop.  This is the transport scripts and editors drive.
* **HTTP** — a :class:`ThreadingHTTPServer` bound to ``127.0.0.1``
  (never a public interface) accepting ``POST /v1/query`` with the same
  JSON payloads, plus ``GET /v1/ping``, ``GET /v1/stats``, ``GET
  /v1/metrics`` (live registry in Prometheus text format) and ``GET
  /v1/requests`` (the recent-request journal).  The port is OS-assigned
  by default and printed/returned so clients can find it.

Observability (DESIGN.md §6j): every request gets a ``trace_id``
(client-supplied or daemon-minted), runs inside a thread-local
:func:`repro.obs.core.trace_scope` so its ``serve.*`` spans carry the
id, and echoes it back in the response — ok *and* error.  ``debug:
true`` requests additionally return their own span tree inline.  Every
request bumps ``serve.request.total`` (and ``.errors`` on failure),
lands its wall time in the ``serve.request.ms`` latency histogram and
the SLO counters (``serve.slo.ok``/``.breach`` against ``--slo-ms``),
and is journalled into the one bounded request ring
(:class:`~repro.obs.reqlog.RequestJournal`); requests slower than
``--slow-ms`` are sampled into a JSONL access log.  Reading
``/v1/metrics`` or the ``stats`` op publishes what the ring implies:
the windowed burn rates and the per-op
``serve.request.ms.p50/p95/p99`` gauges.

Failures are answers, not crashes: protocol errors, compile errors and
analysis errors each map to a typed error response and the daemon keeps
serving.  Only :class:`~repro.serve.session.DifferentialMismatch` is
allowed to propagate in tests — over the wire it too becomes an error
response (kind ``differential``), because a disagreeing daemon should
say so loudly rather than die silently.
"""

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional
from urllib.parse import parse_qs, urlparse

from repro import CompileError, __version__
from repro.lang.errors import ResourceLimitError
from repro.obs import core as obs
from repro.obs import metrics, promtext
from repro.obs.reqlog import (
    DEFAULT_SLO_MS,
    AccessLog,
    RequestJournal,
    RequestRecord,
)
from repro.obs.reqlog import now as wall_now
from repro.obs.sampler import DEFAULT_SAMPLE_RATE, HeadSampler
from repro.obs.tracestore import TraceStore, make_record, mint_trace_id
from repro.obs.traceview import summarize_traces
from repro.qa import chaos, guards
from repro.serve import protocol
from repro.serve.session import DifferentialMismatch, SessionManager

#: Latency histogram buckets in milliseconds: warm hits are sub-ms,
#: cold compiles tens-to-hundreds of ms.
LATENCY_BUCKETS_MS = (0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0,
                      250.0, 1000.0, 5000.0)

#: How long a graceful drain waits for in-flight requests, seconds.
DRAIN_TIMEOUT = 30.0

#: ``# HELP`` text served on ``/v1/metrics`` for the headline series
#: (promtext emits HELP only when asked, so batch ``BENCH_obs.prom``
#: output is unchanged).
METRIC_HELP = {
    "serve.request.total": "Requests received, by op.",
    "serve.request.errors": "Requests answered with a typed error, by op.",
    "serve.request.ms": "Request wall time in milliseconds, by op.",
    "serve.request.ms.p50": "Median request latency over the last hour "
                            "(ms, exact).",
    "serve.request.ms.p95": "95th-percentile request latency over the "
                            "last hour (ms, exact).",
    "serve.request.ms.p99": "99th-percentile request latency over the "
                            "last hour (ms, exact).",
    "serve.slo.ok": "Requests within the --slo-ms objective, by op.",
    "serve.slo.breach": "Requests over the --slo-ms objective, by op.",
    "serve.slo.burn_rate_5m": "Fraction of requests breaching the SLO "
                              "in the trailing 5 minutes.",
    "serve.slo.burn_rate_1h": "Fraction of requests breaching the SLO "
                              "in the trailing hour.",
    "obs.trace.sampled": "Requests whose span tree was head-sampled.",
    "obs.trace.flushed": "Trace records appended to the trace store.",
}


def _limit(query: Dict[str, list]) -> Optional[int]:
    """The ``?limit=N`` of a GET query (None when absent or unparseable)."""
    raw = query.get("limit")
    try:
        return max(0, int(raw[0])) if raw else None
    except ValueError:
        return None


class Daemon:
    """Transport-independent request dispatcher over one session manager."""

    def __init__(self, manager: SessionManager,
                 deadline_seconds: Optional[float] = None,
                 slo_ms: float = DEFAULT_SLO_MS,
                 slow_ms: Optional[float] = None,
                 access_log_path: Optional[str] = None,
                 access_log_sample: int = 1,
                 sampler: Optional[HeadSampler] = None,
                 trace_store: Optional[TraceStore] = None):
        self.manager = manager
        #: Per-request wall-clock budget; ``None`` serves unbounded.
        self.deadline_seconds = deadline_seconds
        #: Latency objective (ms) the SLO counters judge against.
        self.slo_ms = slo_ms
        #: Always-on head sampling: the default rate keeps tracing live
        #: (and the bench gate honest about its cost) out of the box.
        self.sampler = sampler if sampler is not None \
            else HeadSampler(DEFAULT_SAMPLE_RATE)
        #: Sampled traces flush here; ``None`` samples without storing
        #: (the coin still decides span collection, nothing persists).
        self.trace_store = trace_store
        self.shutdown_event = threading.Event()
        #: Draining daemons answer ping/stats/shutdown but reject new
        #: analysis work with a typed ``unavailable`` error.
        self.draining = False
        #: The one ring of finished requests: ``GET /v1/requests``, the
        #: burn rates and the per-op quantile gauges all read it.
        self.journal = RequestJournal(slo_ms=slo_ms)
        #: Sampled JSONL log of slow requests; None when not configured.
        self.access_log: Optional[AccessLog] = None
        if access_log_path is not None:
            self.access_log = AccessLog(
                access_log_path,
                slow_ms if slow_ms is not None else slo_ms,
                sample=access_log_sample)
        self._inflight = 0
        self._inflight_cond = threading.Condition()
        self._http_server: Optional[ThreadingHTTPServer] = None
        self._http_thread: Optional[threading.Thread] = None

    # -- dispatch -------------------------------------------------------

    def handle_request(self, request: protocol.Request) -> dict:
        """One request in, one response dict out; never raises."""
        registry = metrics.registry()
        registry.counter("serve.request.total", op=request.op).inc()
        # Trace identity: a propagated context wins (its id and sampled
        # flag are the whole point of propagation); otherwise a
        # client-chosen or minted id rolls the head-sampler coin.
        try:
            ctx = request.trace_context()
        except ValueError:
            # from_obj validates on ingest; a hand-built Request with a
            # bad header degrades to a fresh trace, never a crash.
            ctx = None
        if ctx is not None:
            trace_id = ctx.trace_id
            sampled = ctx.sampled
        else:
            trace_id = request.trace_id or mint_trace_id()
            sampled = self.sampler.decide(trace_id)
        if sampled:
            registry.counter("obs.trace.sampled").inc()
        with self._inflight_cond:
            if self.draining and request.op in protocol.SOURCE_OPS:
                registry.counter("serve.request.rejected").inc()
                response = protocol.error_response(
                    request.id, "unavailable",
                    "daemon is draining and accepts no new analysis work",
                    trace_id=trace_id)
                self._journal(request, trace_id, 0.0, response, cache=None)
                return response
            self._inflight += 1
        start = time.perf_counter()
        request_deadline: Optional[guards.Deadline] = None
        scope = obs.trace_scope(
            trace_id, collect=sampled or request.debug,
            remote_parent=((ctx.proc, ctx.span_id)
                           if ctx is not None else None))
        try:
            with scope:
                try:
                    with guards.guarded(
                            self.deadline_seconds,
                            "serve request {}".format(request.op)
                    ) as request_deadline:
                        if request_deadline is not None:
                            registry.counter("serve.deadline.installed").inc()
                        chaos.fire("daemon.handler", op=request.op)
                        with obs.span("serve.request." + request.op,
                                      unit=request.name or "?"):
                            result = self._dispatch(request)
                    response = protocol.ok_response(request.id, result,
                                                    trace_id=trace_id)
                except protocol.ProtocolError as err:
                    response = self._error(request, "protocol", err, trace_id)
                except DifferentialMismatch as err:
                    response = self._error(request, "differential", err,
                                           trace_id)
                except CompileError as err:
                    response = self._error(request, "compile", err, trace_id)
                except ResourceLimitError as err:
                    # The per-request deadline and the analysis resource
                    # guards raise the same type; the deadline's own expiry
                    # disambiguates which budget ran out.
                    if request_deadline is not None and \
                            request_deadline.expired():
                        registry.counter("serve.deadline.expired").inc()
                        response = self._error(request, "deadline_exceeded",
                                               err, trace_id)
                    else:
                        response = self._error(request, "resource_limit",
                                               err, trace_id)
                except Exception as err:  # noqa: BLE001 - daemon must not die
                    response = self._error(request, "internal", err, trace_id)
        finally:
            with self._inflight_cond:
                self._inflight -= 1
                self._inflight_cond.notify_all()
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        registry.histogram("serve.request.ms", buckets=LATENCY_BUCKETS_MS,
                           op=request.op).observe(elapsed_ms)
        slo = "serve.slo.ok" if elapsed_ms <= self.slo_ms \
            else "serve.slo.breach"
        registry.counter(slo, op=request.op).inc()
        if request.debug:
            response["spans"] = scope.tree()
        if sampled and self.trace_store is not None:
            self.trace_store.append(make_record(
                scope, origin="daemon", op=request.op, ms=elapsed_ms,
                ok=bool(response.get("ok")), unit=request.name))
        self._journal(request, trace_id, elapsed_ms, response,
                      cache=scope.notes.get("cache"))
        return response

    def _error(self, request: protocol.Request, kind: str,
               err: Exception, trace_id: Optional[str] = None) -> dict:
        metrics.registry().counter("serve.request.errors", op=request.op).inc()
        return protocol.error_response(request.id, kind, str(err),
                                       trace_id=trace_id)

    # -- per-request accounting -----------------------------------------

    def _journal(self, request: protocol.Request, trace_id: str,
                 elapsed_ms: float, response: dict,
                 cache: Optional[str]) -> None:
        """Ring-journal one finished request; tee slow ones to the log."""
        ok = bool(response.get("ok"))
        error = response.get("error") or {}
        record = RequestRecord(
            op=request.op,
            trace_id=trace_id,
            unit=request.name,
            ms=elapsed_ms,
            ok=ok,
            error_kind=None if ok else error.get("kind"),
            cache=cache,
            ts=wall_now(),
        )
        self.journal.record(record)
        if self.access_log is not None:
            self.access_log.maybe_log(record)

    def metrics_text(self) -> str:
        """The live registry as Prometheus exposition (``/v1/metrics``),
        with the ring's windowed gauges published first."""
        self.journal.publish()
        return promtext.render(help_texts=METRIC_HELP)

    def requests_payload(self, query: Dict[str, list]) -> dict:
        """``GET /v1/requests`` body: the newest journalled requests."""
        return self.journal.snapshot(_limit(query))

    def traces_payload(self, query: Dict[str, list]) -> tuple:
        """``GET /v1/traces`` body: trace summaries, or one full trace.

        ``?id=X`` returns that trace's raw records (the cross-process
        tree is the *viewer's* job — the wire carries data, not
        rendering).  Returns ``(status, payload)``.
        """
        if self.trace_store is None:
            return 404, {"ok": False, "error": {
                "kind": "http",
                "message": "daemon has no trace store (--trace-store)"}}
        wanted = query.get("id")
        if wanted:
            records = self.trace_store.trace(wanted[0])
            if not records:
                return 404, {"ok": False, "error": {
                    "kind": "http",
                    "message": "unknown trace {!r}".format(wanted[0])}}
            return 200, {"trace": wanted[0], "records": records}
        limit = _limit(query)
        summaries = summarize_traces(self.trace_store.traces())
        if limit is not None:
            summaries = summaries[:limit]
        return 200, {"traces": summaries,
                     "store": self.trace_store.stats()}

    def _dispatch(self, request: protocol.Request) -> dict:
        op = request.op
        if op == "ping":
            return {"pong": True, "version": __version__,
                    "protocol": protocol.PROTOCOL_VERSION,
                    "degraded": self.manager.degraded,
                    "draining": self.draining,
                    "slo_ms": self.slo_ms}
        if op == "stats":
            stats = self.manager.stats()
            stats["draining"] = self.draining
            stats["slo_ms"] = self.slo_ms
            stats["journal_total"] = self.journal.total
            stats["slo_burn"] = self.journal.publish()
            if self.trace_store is not None:
                stats["trace_store"] = self.trace_store.stats()
            # Visible across process boundaries: the cross-process chaos
            # battery reads the child daemon's injection count here.
            stats["counters"]["chaos.injected"] = int(
                metrics.registry().counter("chaos.injected").value)
            return stats
        if op == "shutdown":
            self.shutdown_event.set()
            return {"stopping": True}
        # Source-bearing ops from here on (protocol validated presence).
        session = self.manager.lookup(request.source, name=request.name)
        if op == "alias":
            analysis = request.analysis or "SMFieldTypeRefs"
            counts = self.manager.alias_counts(
                session, analysis, request.open_world)
            return {
                "module": session.name,
                "module_hash": session.module_hash,
                "analysis": analysis,
                "open_world": request.open_world,
                "references": counts[0],
                "local_pairs": counts[1],
                "global_pairs": counts[2],
            }
        if op == "tables":
            if request.worlds == "both":
                world_list = [False, True]
            elif request.worlds is not None:
                world_list = [request.worlds == "open"]
            else:
                world_list = [request.open_world]
            rows = []
            for open_world in world_list:
                rows.extend(self.manager.tables(session, open_world))
            return {
                "module": session.name,
                "module_hash": session.module_hash,
                "open_world": world_list[0] if len(world_list) == 1
                else request.open_world,
                "worlds": request.worlds or
                ("open" if world_list == [True] else "closed"),
                "rows": rows,
            }
        if op == "limit":
            result = self.manager.limit(session, request.analysis)
            result["module"] = session.name
            return result
        if op == "facts":
            summary = self.manager.facts_summary(
                session, request.open_world)
            summary["module"] = session.name
            summary["module_hash"] = session.module_hash
            summary["procedures"] = len(session.bundle.proc_hashes)
            return summary
        raise protocol.ProtocolError("unhandled op {!r}".format(op))

    # -- stdio transport ------------------------------------------------

    def handle_line(self, line: str) -> str:
        """One JSONL input line to one JSONL output line."""
        try:
            parsed = protocol.parse_line(line)
        except protocol.ProtocolError as err:
            metrics.registry().counter("serve.request.errors", op="?").inc()
            return protocol.encode_line(
                protocol.error_response(None, "protocol", str(err)))
        if isinstance(parsed, list):
            return protocol.encode_line(
                [self.handle_request(req) for req in parsed])
        return protocol.encode_line(self.handle_request(parsed))

    def serve_stdio(self, stdin, stdout) -> int:
        """Blocking loop: read lines until EOF or a ``shutdown`` op."""
        for line in stdin:
            if not line.strip():
                continue
            stdout.write(self.handle_line(line))
            stdout.flush()
            if self.shutdown_event.is_set():
                break
        # EOF or shutdown op: same graceful exit as a signal drain —
        # finish anything on the HTTP side, flush the fact store.
        self.drain()
        return 0

    # -- HTTP transport -------------------------------------------------

    def start_http(self, port: int = 0) -> int:
        """Start the localhost HTTP shim; returns the bound port."""
        daemon = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def log_message(self, *args):  # quiet by default
                pass

            def _reply(self, status: int, payload) -> None:
                body = json.dumps(payload, sort_keys=True).encode()
                self._raw_reply(status, body, "application/json")

            def _raw_reply(self, status: int, body: bytes,
                           content_type: str) -> None:
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def do_GET(self):
                parsed = urlparse(self.path)
                if parsed.path == "/v1/ping":
                    self._reply(200, daemon.handle_request(
                        protocol.Request(op="ping")))
                elif parsed.path == "/v1/stats":
                    self._reply(200, daemon.handle_request(
                        protocol.Request(op="stats")))
                elif parsed.path == "/v1/metrics":
                    self._raw_reply(
                        200, daemon.metrics_text().encode("utf-8"),
                        "text/plain; version=0.0.4; charset=utf-8")
                elif parsed.path == "/v1/requests":
                    self._reply(200, daemon.requests_payload(
                        parse_qs(parsed.query)))
                elif parsed.path == "/v1/traces":
                    self._reply(*daemon.traces_payload(
                        parse_qs(parsed.query)))
                else:
                    self._reply(404, {"ok": False, "error": {
                        "kind": "http", "message": "unknown path"}})

            def do_POST(self):
                if self.path != "/v1/query":
                    self._reply(404, {"ok": False, "error": {
                        "kind": "http", "message": "unknown path"}})
                    return
                length = int(self.headers.get("Content-Length") or 0)
                body = self.rfile.read(length).decode("utf-8", "replace")
                try:
                    parsed = protocol.parse_line(body)
                except protocol.ProtocolError as err:
                    self._reply(400, protocol.error_response(
                        None, "protocol", str(err)))
                    return
                if isinstance(parsed, list):
                    self._reply(200, [daemon.handle_request(r)
                                      for r in parsed])
                else:
                    self._reply(200, daemon.handle_request(parsed))

        self._http_server = ThreadingHTTPServer(("127.0.0.1", port), Handler)
        self._http_thread = threading.Thread(
            target=self._http_server.serve_forever, daemon=True,
            name="repro-serve-http")
        self._http_thread.start()
        return self._http_server.server_address[1]

    def stop_http(self) -> None:
        if self._http_server is not None:
            self._http_server.shutdown()
            self._http_server.server_close()
            self._http_server = None
            self._http_thread = None

    # -- graceful drain -------------------------------------------------

    def begin_drain(self) -> None:
        """Flip to draining: new analysis work is rejected (typed
        ``unavailable``), in-flight requests run to completion, and the
        stdio loop / CLI wait wake up to finish the shutdown."""
        with self._inflight_cond:
            self.draining = True
        self.shutdown_event.set()

    def drain(self, timeout: float = DRAIN_TIMEOUT) -> bool:
        """Finish in-flight work, flush the fact store, stop HTTP.

        HTTP handler threads are daemonic, so ``stop_http`` alone would
        abandon mid-request work — the in-flight condition variable is
        what guarantees every accepted request produces its answer
        before the process exits.  Returns False only if in-flight work
        outlived *timeout* (the store is flushed and HTTP stopped
        regardless).
        """
        self.begin_drain()
        expires = time.monotonic() + timeout
        with self._inflight_cond:
            while self._inflight > 0:
                remaining = expires - time.monotonic()
                if remaining <= 0:
                    break
                self._inflight_cond.wait(remaining)
            drained = self._inflight == 0
        if self.manager.store is not None:
            self.manager.store.flush()
        self.stop_http()
        return drained
