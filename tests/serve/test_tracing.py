"""End-to-end request tracing: propagation, debug span trees, journal,
access log, /v1/metrics.

The tentpole invariant: a trace id enters at the client, flows through
the protocol into the daemon's request scope, tags every span recorded
while the request runs (session, fact store, compile pipeline), and
comes back out — in the response (ok *and* error), in the request
journal, and in the slow-request access log.
"""

import json
import urllib.request

import pytest

from repro.obs import core as obs
from repro.obs import jsonl, metrics
from repro.obs.profile import render_span_tree
from repro.serve import protocol
from repro.serve.client import SMOKE_SOURCE, HttpClient
from repro.serve.daemon import Daemon, mint_trace_id
from repro.serve.factcache import FactStore
from repro.serve.session import SessionManager

from tests.obs.promcheck import assert_valid_exposition

BAD_SOURCE = "MODULE Broken; this does not parse"


@pytest.fixture()
def daemon(tmp_path):
    metrics.registry().reset()
    manager = SessionManager(store=FactStore(tmp_path / "store"),
                             differential=True)
    daemon = Daemon(manager, slow_ms=0.0,
                    access_log_path=str(tmp_path / "access.jsonl"))
    port = daemon.start_http()
    yield daemon, port, tmp_path
    daemon.stop_http()


def _query(port, request):
    return HttpClient(port).query(request)


# ----------------------------------------------------------------------
# Protocol layer


def test_protocol_accepts_and_validates_trace_fields():
    request = protocol.Request.from_obj(
        {"op": "ping", "trace_id": "abc", "debug": True})
    assert request.trace_id == "abc"
    assert request.debug is True
    with pytest.raises(protocol.ProtocolError, match="trace_id"):
        protocol.Request.from_obj({"op": "ping", "trace_id": ""})
    with pytest.raises(protocol.ProtocolError, match="trace_id"):
        protocol.Request.from_obj({"op": "ping", "trace_id": 7})
    with pytest.raises(protocol.ProtocolError, match="debug"):
        protocol.Request.from_obj({"op": "ping", "debug": "yes"})


def test_responses_echo_trace_only_when_set():
    assert "trace" not in protocol.ok_response("i", {})
    assert protocol.ok_response("i", {}, trace_id="t")["trace"] == "t"
    assert protocol.error_response(
        "i", "compile", "boom", trace_id="t")["trace"] == "t"


# ----------------------------------------------------------------------
# End-to-end propagation


def test_client_trace_id_round_trips_on_ok(daemon):
    _, port, _ = daemon
    response = _query(port, {"op": "alias", "source": SMOKE_SOURCE,
                             "name": "smoke", "id": "q1",
                             "trace_id": "my-trace-1"})
    assert response["ok"], response
    assert response["trace"] == "my-trace-1"


def test_client_trace_id_round_trips_on_error(daemon):
    _, port, _ = daemon
    response = _query(port, {"op": "alias", "source": BAD_SOURCE,
                             "name": "bad", "id": "q2",
                             "trace_id": "my-trace-err"})
    assert response["ok"] is False
    assert response["error"]["kind"] == "compile"
    assert response["trace"] == "my-trace-err"


def test_daemon_mints_distinct_trace_ids_when_absent(daemon):
    _, port, _ = daemon
    first = _query(port, {"op": "ping", "id": "p1"})
    second = _query(port, {"op": "ping", "id": "p2"})
    for response in (first, second):
        assert response["ok"]
        assert isinstance(response["trace"], str) and response["trace"]
    assert first["trace"] != second["trace"]


def test_debug_returns_span_tree_tagged_with_the_trace(daemon):
    _, port, _ = daemon
    response = _query(port, {"op": "tables", "source": SMOKE_SOURCE,
                             "name": "smoke", "worlds": "both", "id": "d1",
                             "trace_id": "debug-trace", "debug": True})
    assert response["ok"], response
    spans = response["spans"]
    assert spans, "debug request returned an empty span tree"
    assert all(span["trace"] == "debug-trace" for span in spans)
    names = {span["name"] for span in spans}
    assert "serve.request.tables" in names
    assert "serve.facts.rebuild" in names  # cold build traced through
    rendered = render_span_tree(spans)
    assert "serve.request.tables" in rendered
    assert "ms" in rendered


def test_no_debug_means_no_spans_key(daemon):
    _, port, _ = daemon
    response = _query(port, {"op": "ping", "id": "nd"})
    assert "spans" not in response


def test_tracing_does_not_leak_spans_into_the_global_recorder(daemon):
    _, port, _ = daemon
    before = len(obs.recorder().spans())
    response = _query(port, {"op": "alias", "source": SMOKE_SOURCE,
                             "name": "smoke", "id": "g1", "debug": True})
    assert response["ok"]
    assert len(obs.recorder().spans()) == before


def test_debug_changes_no_served_answer(daemon):
    # Differential guard: observability must be read-only.  The same
    # query answers identically with tracing bells on and off.
    _, port, _ = daemon
    plain = _query(port, {"op": "alias", "source": SMOKE_SOURCE,
                          "name": "smoke", "id": "a1"})
    traced = _query(port, {"op": "alias", "source": SMOKE_SOURCE,
                           "name": "smoke", "id": "a2",
                           "trace_id": "t-diff", "debug": True})
    assert plain["ok"] and traced["ok"]
    assert plain["result"] == traced["result"]
    registry = metrics.registry()
    assert registry.counter("serve.request.total", op="alias").value == 2


# ----------------------------------------------------------------------
# Journal, access log, metrics endpoint


def test_journal_and_access_log_carry_the_trace(daemon):
    _, port, tmp_path = daemon
    ok = _query(port, {"op": "alias", "source": SMOKE_SOURCE,
                       "name": "smoke", "id": "j1", "trace_id": "tr-ok"})
    assert ok["ok"]
    bad = _query(port, {"op": "alias", "source": BAD_SOURCE,
                        "name": "bad", "id": "j2", "trace_id": "tr-bad"})
    assert bad["ok"] is False

    snapshot = HttpClient(port).requests_snapshot()
    assert snapshot["total"] == 2
    by_trace = {r["trace"]: r for r in snapshot["requests"]}
    assert by_trace["tr-ok"]["ok"] is True
    assert by_trace["tr-ok"]["cache"] == "build"
    assert by_trace["tr-bad"]["ok"] is False
    assert by_trace["tr-bad"]["error"] == "compile"

    # slow_ms=0 makes every request slow: both lines logged and valid.
    logged = jsonl.read(str(tmp_path / "access.jsonl"), jsonl.ACCESS_LOG)
    assert (logged.invalid, logged.torn) == ([], 0)
    assert len(logged.records) == 2
    assert {obj["trace"] for obj in logged.records} == {"tr-ok", "tr-bad"}


def test_requests_endpoint_respects_limit(daemon):
    _, port, _ = daemon
    client = HttpClient(port)
    for i in range(4):
        assert client.query({"op": "ping", "id": "p{}".format(i)})["ok"]
    snapshot = client.requests_snapshot(limit=2)
    assert snapshot["total"] == 4
    assert len(snapshot["requests"]) == 2


def test_metrics_endpoint_is_lint_clean_prometheus(daemon):
    _, port, _ = daemon
    client = HttpClient(port)
    assert client.query({"op": "alias", "source": SMOKE_SOURCE,
                         "name": "smoke", "id": "m1"})["ok"]
    with urllib.request.urlopen(
            "http://127.0.0.1:{}/v1/metrics".format(port),
            timeout=10) as resp:
        assert resp.headers["Content-Type"] == \
            "text/plain; version=0.0.4; charset=utf-8"
        text = resp.read().decode("utf-8")
    assert_valid_exposition(text)
    for needle in ("repro_serve_request_ms_p50",
                   "repro_serve_request_ms_p95",
                   "repro_serve_request_ms_p99",
                   "repro_serve_slo_ok",
                   "# HELP repro_serve_request_total"):
        assert needle in text, needle
    assert "repro_serve_request_total" in client.metrics_text()


def test_slo_counters_judge_against_slo_ms(tmp_path):
    metrics.registry().reset()
    manager = SessionManager(store=None)
    # An impossible 0ms objective: every request breaches.
    daemon = Daemon(manager, slo_ms=0.0)
    response = daemon.handle_request(
        protocol.Request.from_obj({"op": "ping", "trace_id": "slo"}))
    assert response["ok"]
    registry = metrics.registry()
    assert registry.counter("serve.slo.breach", op="ping").value == 1
    assert registry.counter("serve.slo.ok", op="ping").value == 0


def test_mint_trace_id_shape():
    a, b = mint_trace_id(), mint_trace_id()
    assert a != b
    assert len(a) == 16
    int(a, 16)  # hex


# ----------------------------------------------------------------------
# Continuous tracing: traceparent propagation, store flushes, /v1/traces


def _traced_daemon(tmp_path, rate=1.0):
    from repro.obs.sampler import HeadSampler
    from repro.obs.tracestore import TraceStore

    metrics.registry().reset()
    store = TraceStore(tmp_path / "traces")
    manager = SessionManager(store=FactStore(tmp_path / "facts"))
    return Daemon(manager, sampler=HeadSampler(rate),
                  trace_store=store), store


def test_protocol_validates_traceparent_on_ingest():
    request = protocol.Request.from_obj({
        "id": "r1", "op": "ping",
        "traceparent": "trace-x-cafe0123-2a-01"})
    ctx = request.trace_context()
    assert ctx.trace_id == "trace-x"
    assert ctx.proc == "cafe0123"
    assert ctx.span_id == 0x2A
    assert ctx.sampled is True
    with pytest.raises(protocol.ProtocolError,
                       match="bad 'traceparent'"):
        protocol.Request.from_obj({"id": "r2", "op": "ping",
                                   "traceparent": "garbage"})


def test_daemon_adopts_propagated_context_and_flushes(tmp_path):
    daemon, store = _traced_daemon(tmp_path)
    response = daemon.handle_request(protocol.Request.from_obj({
        "id": "r1", "op": "ping",
        "traceparent": "prop-trace-cafe0123-2a-01"}))
    assert response["ok"]
    assert response["trace"] == "prop-trace"
    assert "spans" not in response  # sampling never leaks debug output
    records = store.trace("prop-trace")
    assert len(records) == 1
    record = records[0]
    assert record["origin"] == "daemon"
    assert record["op"] == "ping"
    # The daemon's root span parents under the caller's open span.
    assert record["parent"] == {"proc": "cafe0123", "span": 0x2A}
    assert record["spans"][0]["name"] == "serve.request.ping"


def test_unsampled_context_suppresses_the_flush(tmp_path):
    # sampled=00 from the caller wins over the daemon's own sampler,
    # so one trace is all-or-nothing across processes.
    daemon, store = _traced_daemon(tmp_path, rate=1.0)
    response = daemon.handle_request(protocol.Request.from_obj({
        "id": "r1", "op": "ping",
        "traceparent": "cold-trace-cafe0123-0-00"}))
    assert response["ok"]
    assert response["trace"] == "cold-trace"
    assert store.records() == []


def test_minted_traces_roll_the_samplers_coin(tmp_path):
    daemon, store = _traced_daemon(tmp_path, rate=0.0)
    assert daemon.handle_request(protocol.Request.from_obj(
        {"id": "r1", "op": "ping"}))["ok"]
    assert store.records() == []
    assert metrics.registry().counter("obs.trace.sampled").value == 0


def test_traces_endpoint_404_without_a_store(daemon):
    _daemon, port, _tmp = daemon
    with pytest.raises(urllib.error.HTTPError) as failure:
        urllib.request.urlopen(
            "http://127.0.0.1:{}/v1/traces".format(port))
    assert failure.value.code == 404
    body = json.loads(failure.value.read())
    assert "trace store" in body["error"]["message"]


def test_traces_endpoint_serves_summaries_and_records(tmp_path):
    daemon, _store = _traced_daemon(tmp_path)
    port = daemon.start_http()
    try:
        assert daemon.handle_request(protocol.Request.from_obj(
            {"id": "r1", "op": "ping", "trace_id": "wanted"}))["ok"]
        base = "http://127.0.0.1:{}".format(port)
        with urllib.request.urlopen(base + "/v1/traces") as resp:
            listing = json.loads(resp.read())
        assert [s["trace"] for s in listing["traces"]] == ["wanted"]
        assert listing["store"]["segments"] >= 1
        with urllib.request.urlopen(
                base + "/v1/traces?id=wanted") as resp:
            full = json.loads(resp.read())
        assert full["trace"] == "wanted"
        assert full["records"][0]["origin"] == "daemon"
        with pytest.raises(urllib.error.HTTPError) as failure:
            urllib.request.urlopen(base + "/v1/traces?id=nope")
        assert failure.value.code == 404
    finally:
        daemon.stop_http()


def test_requests_payload_defaults_to_newest_256(tmp_path):
    metrics.registry().reset()
    daemon = Daemon(SessionManager(store=FactStore(tmp_path / "facts")))
    for i in range(300):
        assert daemon.handle_request(protocol.Request.from_obj(
            {"id": "r{}".format(i), "op": "ping",
             "trace_id": "t{}".format(i)}))["ok"]
    snapshot = daemon.requests_payload({})
    assert snapshot["total"] == 300
    assert len(snapshot["requests"]) == 256
    assert snapshot["requests"][0]["trace"] == "t299"
    assert len(daemon.requests_payload({"limit": ["1000"]})["requests"]) \
        == 300
    # The ring behind it is sized for the hour-long burn window.
    assert daemon.journal.publish()["1h"]["requests"] == 300


def test_stats_op_reports_burn_windows_and_store(tmp_path):
    daemon, _store = _traced_daemon(tmp_path)
    assert daemon.handle_request(protocol.Request.from_obj(
        {"id": "r0", "op": "ping"}))["ok"]
    response = daemon.handle_request(protocol.Request.from_obj(
        {"id": "r1", "op": "stats"}))
    assert response["ok"]
    burn = response["result"]["slo_burn"]
    assert set(burn) >= {"5m", "1h"}
    assert burn["5m"]["requests"] >= 1
    assert burn["5m"]["burn_rate"] is not None
    assert response["result"]["trace_store"]["segments"] >= 1
