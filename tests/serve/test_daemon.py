"""Daemon dispatch and transports: batches, errors, differential pinning."""

import gc
import json
import math

import pytest

from repro import compile_program
from repro.analysis import ANALYSIS_NAMES
from repro.analysis.alias_pairs import AliasPairCounter
from repro.obs import metrics
from repro.obs.sampler import HeadSampler
from repro.serve import protocol
from repro.serve.client import SMOKE_SOURCE, HttpClient
from repro.serve.daemon import Daemon
from repro.serve.session import SessionManager


@pytest.fixture()
def daemon():
    metrics.registry().reset()
    return Daemon(SessionManager(store=None, differential=True))


def _request(**fields):
    return protocol.Request.from_obj(fields)


def test_ping_stats_and_shutdown_ops(daemon):
    pong = daemon.handle_request(_request(op="ping"))
    assert pong["ok"] and pong["result"]["pong"] is True
    assert pong["result"]["protocol"] == protocol.PROTOCOL_VERSION

    stats = daemon.handle_request(_request(op="stats"))
    assert stats["ok"]
    assert "serve.session.hit" in stats["result"]["counters"]

    assert not daemon.shutdown_event.is_set()
    stop = daemon.handle_request(_request(op="shutdown"))
    assert stop["ok"] and stop["result"]["stopping"] is True
    assert daemon.shutdown_event.is_set()


def test_six_configurations_served_equal_fast_and_reference(daemon):
    """All 3 analyses x both worlds: served == cold fast == reference.

    The daemon runs in differential mode, so every served count is
    *already* pinned in-process against both cold engines (a mismatch
    would surface as an error response).  This test re-derives the cold
    answers independently and compares, so the pinning itself is pinned.
    """
    program = compile_program(SMOKE_SOURCE, "smoke.m3")
    base = program.base().program
    served = {}
    for analysis in ANALYSIS_NAMES:
        for open_world in (False, True):
            response = daemon.handle_request(_request(
                op="alias", source=SMOKE_SOURCE, name="smoke",
                analysis=analysis, open_world=open_world))
            assert response["ok"], response
            result = response["result"]
            served[(analysis, open_world)] = (
                result["references"], result["local_pairs"],
                result["global_pairs"])

    for (analysis, open_world), counts in served.items():
        alias = program.analysis(analysis, open_world=open_world)
        for engine in ("fast", "reference"):
            cold = AliasPairCounter(base, alias, engine=engine).count()
            assert cold.counts() == counts, (analysis, open_world, engine)

    checks = metrics.registry().counter("serve.differential.checks").value
    assert checks == 6


def test_batch_preserves_request_order_and_isolates_errors(daemon):
    line = json.dumps([
        {"op": "ping", "id": "first"},
        {"op": "alias", "id": "broken", "source": "MODULE Bad; BEGIN"},
        {"op": "tables", "id": "last", "source": SMOKE_SOURCE},
    ])
    out = daemon.handle_line(line)
    responses = json.loads(out)
    assert [r["id"] for r in responses] == ["first", "broken", "last"]
    assert responses[0]["ok"]
    assert not responses[1]["ok"]
    assert responses[1]["error"]["kind"] == "compile"
    assert responses[2]["ok"]  # the batch survived the middle failure
    assert len(responses[2]["result"]["rows"]) == len(ANALYSIS_NAMES)


def test_digit_int_rejects_is_a_compile_error(daemon):
    """A lex error, not ``internal``: '²'.isdigit() but int('²') fails."""
    response = daemon.handle_request(_request(
        op="tables", source="MODULE Sup; VAR x: INTEGER; "
                            "BEGIN x := \u00b2; END Sup."))
    assert not response["ok"]
    assert response["error"]["kind"] == "compile"
    assert "malformed number" in response["error"]["message"]


def test_malformed_line_yields_protocol_error_not_crash(daemon):
    out = json.loads(daemon.handle_line("{truncated"))
    assert out["ok"] is False
    assert out["error"]["kind"] == "protocol"
    out = json.loads(daemon.handle_line('{"op": "explode"}'))
    assert out["error"]["kind"] == "protocol"
    # The daemon keeps serving afterwards.
    assert json.loads(daemon.handle_line('{"op": "ping"}'))["ok"]


def test_request_metrics_count_totals_errors_and_latency(daemon):
    daemon.handle_request(_request(op="ping"))
    daemon.handle_request(_request(op="ping"))
    daemon.handle_request(_request(
        op="alias", source="MODULE Bad; BEGIN", id="x"))
    registry = metrics.registry()
    assert registry.counter("serve.request.total", op="ping").value == 2
    assert registry.counter("serve.request.total", op="alias").value == 1
    assert registry.counter("serve.request.errors", op="alias").value == 1
    assert registry.histogram("serve.request.ms", op="ping").count == 2


def test_stdio_loop_echoes_one_line_per_line_until_shutdown(daemon):
    import io

    stdin = io.StringIO(
        '{"op": "ping", "id": 1}\n'
        "\n"  # blank lines are skipped, not answered
        '[{"op": "ping", "id": 2}, {"op": "shutdown", "id": 3}]\n'
        '{"op": "ping", "id": "never-reached"}\n')
    stdout = io.StringIO()
    rc = daemon.serve_stdio(stdin, stdout)
    assert rc == 0
    lines = stdout.getvalue().splitlines()
    assert len(lines) == 2  # shutdown stopped the loop mid-stream
    assert json.loads(lines[0])["id"] == 1
    batch = json.loads(lines[1])
    assert [r["id"] for r in batch] == [2, 3]


def test_http_transport_serves_same_answers(daemon):
    port = daemon.start_http()
    try:
        client = HttpClient(port)
        assert client.ping()["result"]["pong"] is True
        direct = daemon.handle_request(_request(
            op="tables", source=SMOKE_SOURCE, name="smoke"))
        via_http = client.query(
            {"op": "tables", "source": SMOKE_SOURCE, "name": "smoke"})
        assert via_http["ok"]
        assert via_http["result"]["rows"] == direct["result"]["rows"]
        batch = client.batch([{"op": "ping", "id": "a"},
                              {"op": "stats", "id": "b"}])
        assert [r["id"] for r in batch] == ["a", "b"]
    finally:
        daemon.stop_http()


def test_limit_and_facts_ops(daemon):
    limit = daemon.handle_request(_request(
        op="limit", source=SMOKE_SOURCE, name="smoke"))
    assert limit["ok"], limit
    result = limit["result"]
    assert result["heap_loads"] >= result["redundant_original"] >= 0
    assert result["redundant_after_rle"] <= result["redundant_original"]

    facts = daemon.handle_request(_request(
        op="facts", source=SMOKE_SOURCE, name="smoke"))
    assert facts["ok"], facts
    summary = facts["result"]
    assert summary["procedures"] >= 2
    assert summary["object_types"] >= 2
    assert summary["steensgaard_classes"] >= 1


#: The ``facts`` op's six counts for every bundled program, the same in
#: both worlds: object types, pointer types, Steensgaard classes,
#: address-taken fields, address-taken variables, procedures.
FACTS_COUNTS = {
    "dformat": (5, 7, 5, 0, 0, 13),
    "dom": (8, 11, 9, 0, 0, 9),
    "format": (4, 6, 6, 0, 2, 9),
    "k-tree": (5, 8, 6, 0, 0, 10),
    "m2tom3": (4, 6, 6, 0, 1, 13),
    "m3cg": (6, 9, 5, 0, 0, 19),
    "postcard": (11, 12, 8, 0, 0, 12),
    "pp": (11, 13, 7, 0, 1, 23),
    "slisp": (8, 9, 4, 0, 0, 16),
    "write-pickle": (8, 11, 5, 0, 0, 9),
}


def test_facts_op_counts_of_every_bundled_program(daemon):
    from repro.bench.registry import benchmark_names, load_source

    keys = ("object_types", "pointer_types", "steensgaard_classes",
            "address_taken_fields", "address_taken_vars", "procedures")
    seen = {}
    for name in benchmark_names():
        for open_world in (False, True):
            response = daemon.handle_request(_request(
                op="facts", source=load_source(name), name=name,
                open_world=open_world))
            assert response["ok"], response
            result = response["result"]
            assert result["open_world"] is open_world
            seen[name, open_world] = tuple(result[k] for k in keys)
    assert seen == {(name, open_world): counts
                    for name, counts in FACTS_COUNTS.items()
                    for open_world in (False, True)}


def test_repeat_facts_op_is_not_a_configuration_hit(daemon):
    """``config_hit`` counts Table 5 answers; a ``facts`` op served from
    the bundle answers none."""
    registry = metrics.registry()
    results = []
    for _ in range(2):
        response = daemon.handle_request(_request(
            op="facts", source=SMOKE_SOURCE, name="smoke"))
        assert response["ok"], response
        assert registry.counter("serve.facts.config_hit").value == 0
        results.append(response["result"])
    assert results[0] == results[1]


def test_stats_op_reports_damaged_partitions(tmp_path):
    """A stdio daemon has no ``/v1/metrics``: ``stats`` must say how
    many partitions it found damaged."""
    from repro.serve.factcache import FactStore

    metrics.registry().reset()
    first = Daemon(SessionManager(store=FactStore(tmp_path)))
    assert first.handle_request(_request(
        op="tables", source=SMOKE_SOURCE, name="smoke"))["ok"]
    partition = next(tmp_path.glob("facts-*.json"))
    partition.write_bytes(partition.read_bytes()[:-10])
    restarted = Daemon(SessionManager(store=FactStore(tmp_path)))
    assert restarted.handle_request(_request(
        op="tables", source=SMOKE_SOURCE, name="smoke"))["ok"]
    counters = restarted.handle_request(
        _request(op="stats"))["result"]["counters"]
    assert counters["serve.factcache.corrupt"] == 1
    assert counters["serve.factcache.hit"] == 0


def _metric_objects():
    """Metric objects alive in the process; the registry holds them all."""
    gc.collect()
    kinds = (metrics.Counter, metrics.Gauge, metrics.Histogram)
    return sum(isinstance(obj, kinds) for obj in gc.get_objects())


def test_served_edits_leave_shared_series_children_flat():
    registry = metrics.registry()
    # Sampling off, an SLO no request breaches and room for every
    # session: no series may first appear mid-test for other reasons.
    daemon = Daemon(SessionManager(store=None, max_sessions=128),
                    slo_ms=math.inf, sampler=HeadSampler(0.0))

    def serve(value):
        source = SMOKE_SOURCE.replace("buf^[0] := 1;",
                                      "buf^[0] := {};".format(value))
        response = daemon.handle_request(_request(
            op="tables", source=source, name="smoke", worlds="both"))
        assert response["ok"], response

    serve(0)
    serve(1)  # the first edit
    objects = _metric_objects()
    series = len(registry.snapshot())
    misses = registry.counter("alias.cache.misses", analysis="TypeDecl").value
    for value in range(2, 102):
        serve(value)
    assert registry.counter(
        "alias.cache.misses", analysis="TypeDecl").value > misses
    assert (_metric_objects(), len(registry.snapshot())) == (objects, series)


def test_unknown_analysis_is_a_protocol_error_at_ingest(daemon):
    compiles = metrics.registry().counter("serve.session.compile")
    before = compiles.value
    for op in ("alias", "limit"):
        line = json.dumps({"op": op, "id": op, "analysis": "Bogus",
                           "source": SMOKE_SOURCE})
        response = json.loads(daemon.handle_line(line))
        assert response["ok"] is False
        assert response["error"]["kind"] == "protocol"
        assert "Bogus" in response["error"]["message"]
    assert compiles.value == before
    # Every name AnalysisContext builds is accepted.
    for name in protocol.ANALYSES:
        assert _request(op="alias", source=SMOKE_SOURCE,
                        analysis=name).analysis == name
