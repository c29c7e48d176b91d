"""``repro top``: exposition parsing, frame rendering, the --once loop."""

import io

import pytest

from repro.obs import metrics
from repro.obs.top import (
    Snapshot,
    TopError,
    fetch_snapshot,
    parse_prom,
    render_frame,
    run_top,
)


def test_parse_prom_reads_samples_and_labels():
    samples = parse_prom(
        "# TYPE a counter\n"
        'a{op="alias"} 3\n'
        'a{op="ping",unit="x"} 2\n'
        "b 1.5\n"
        "# a comment\n"
        "garbage line without value\n"
        'x{a="b" 1\n')
    assert samples[("a", (("op", "alias"),))] == 3.0
    assert samples[("a", (("op", "ping"), ("unit", "x")))] == 2.0
    assert samples[("b", ())] == 1.5
    assert len(samples) == 3  # garbage skipped, never raised


def test_parse_prom_handles_escaped_label_values():
    samples = parse_prom('m{l="a\\"b"} 7\n')
    assert samples[("m", (("l", 'a"b'),))] == 7.0


def _snapshot(total=10.0, errors=1.0, taken=100.0):
    samples = {
        ("repro_serve_request_total", (("op", "alias"),)): total - 2,
        ("repro_serve_request_total", (("op", "ping"),)): 2.0,
        ("repro_serve_request_errors", (("op", "alias"),)): errors,
        ("repro_serve_request_ms_p50", (("op", "alias"),)): 4.5,
        ("repro_serve_request_ms_p95", (("op", "alias"),)): 9.0,
        ("repro_serve_request_ms_p99", (("op", "alias"),)): 12.0,
        ("repro_serve_slo_ok", (("op", "alias"),)): total - 3,
        ("repro_serve_slo_breach", (("op", "alias"),)): 1.0,
        ("repro_serve_session_hit", ()): 6.0,
        ("repro_serve_session_miss", ()): 2.0,
    }
    journal = {"total": int(total), "requests": [
        {"trace": "trace-slow", "op": "alias", "ms": 12.0, "cache": "build",
         "ok": True, "error": None},
        {"trace": "trace-err", "op": "alias", "ms": 2.0, "cache": None,
         "ok": False, "error": "compile"},
    ]}
    ping = {"ok": True, "result": {"version": "1.0.0", "protocol": 1,
                                   "degraded": False, "draining": False,
                                   "slo_ms": 250.0}}
    return Snapshot(samples, journal, ping, taken)


def test_render_frame_shows_ops_cache_and_slow_traces():
    frame = render_frame(_snapshot())
    assert "repro top — daemon v1.0.0 proto 1  [healthy]" in frame
    assert "requests: 10 total, 1 errors" in frame
    assert "rate: n/a req/s" in frame
    assert "slo: 250 ms" in frame
    assert "session 75.0% (6/8)" in frame
    assert "alias" in frame and "4.50" in frame and "12.00" in frame
    assert "trace-slow" in frame
    assert "trace-err" in frame and "compile" in frame


def test_render_frame_rate_from_previous_snapshot():
    previous = _snapshot(total=10.0, taken=100.0)
    current = _snapshot(total=30.0, taken=104.0)
    frame = render_frame(current, previous)
    assert "rate: 5.0 req/s" in frame  # (30-10)/4s


def test_render_frame_degraded_and_empty():
    snap = _snapshot()
    snap.ping["result"]["degraded"] = True
    snap.ping["result"]["draining"] = True
    snap.samples = {}
    snap.journal = {"total": 0, "requests": []}
    frame = render_frame(snap)
    assert "[DEGRADED DRAINING]" in frame
    assert "(no requests served yet)" in frame
    assert "(request journal is empty)" in frame


def test_fetch_snapshot_refuses_dead_daemon():
    with pytest.raises(TopError, match="GET /v1/metrics failed"):
        fetch_snapshot(port=1)  # nothing listens on port 1


def test_run_top_once_against_live_daemon(tmp_path):
    from repro.serve.client import SMOKE_SOURCE
    from repro.serve.daemon import Daemon
    from repro.serve.factcache import FactStore
    from repro.serve.session import SessionManager

    metrics.registry().reset()
    daemon = Daemon(SessionManager(store=FactStore(tmp_path / "store")))
    port = daemon.start_http()
    try:
        from repro.serve.client import HttpClient

        client = HttpClient(port)
        assert client.query({"op": "alias", "source": SMOKE_SOURCE,
                             "name": "smoke", "id": "warm"})["ok"]
        out = io.StringIO()
        assert run_top(port, once=True, out=out) == 0
        frame = out.getvalue()
        assert "repro top" in frame
        assert "alias" in frame
        assert "\x1b[2J" not in frame  # --once never clears the screen
    finally:
        daemon.stop_http()


def test_run_top_exits_one_when_daemon_unreachable():
    out = io.StringIO()
    assert run_top(port=1, once=True, out=out) == 1


def test_run_top_exits_one_when_listener_is_not_http(capsys):
    # A listener that answers garbage instead of HTTP used to escape as
    # a raw http.client.BadStatusLine traceback; it must be the same
    # one-line failure as a dead daemon.
    import socket
    import threading

    server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    server.bind(("127.0.0.1", 0))
    server.listen(1)
    port = server.getsockname()[1]

    def answer_garbage():
        try:
            conn, _addr = server.accept()
        except OSError:
            return
        with conn:
            conn.recv(4096)
            conn.sendall(b"I AM NOT SPEAKING HTTP\r\n")

    thread = threading.Thread(target=answer_garbage, daemon=True)
    thread.start()
    try:
        assert run_top(port=port, once=True, out=io.StringIO()) == 1
    finally:
        server.close()
        thread.join(timeout=5)
    err = capsys.readouterr().err
    assert err.startswith("repro top: GET /v1/metrics failed")
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def test_fetch_snapshot_rejects_wrong_shape_json(monkeypatch):
    from repro.obs import top as top_mod

    answers = {"/v1/metrics": "repro_serve_request_total 1\n",
               "/v1/requests": "[]",  # a list where a dict is required
               "/v1/ping": "{}"}
    monkeypatch.setattr(top_mod, "_get",
                        lambda base, path: answers[path])
    with pytest.raises(TopError, match="wrong shape"):
        fetch_snapshot(port=9999)


def test_render_frame_shows_slo_burn_and_trace_counters():
    snap = _snapshot()
    snap.samples[("repro_serve_slo_burn_rate_5m", ())] = 0.25
    snap.samples[("repro_serve_slo_burn_rate_1h", ())] = 0.105
    snap.samples[("repro_obs_trace_sampled", ())] = 7.0
    snap.samples[("repro_obs_trace_flushed", ())] = 3.0
    frame = render_frame(snap)
    assert "slo burn: 5m 25.0%   1h 10.5%" in frame
    assert "traces: 7 sampled, 3 stored" in frame


def test_render_frame_burn_falls_back_to_na_without_gauges():
    frame = render_frame(_snapshot())
    assert "slo burn: 5m n/a   1h n/a" in frame
    assert "traces: 0 sampled, 0 stored" in frame
