"""The HTTP transport's edges: kept-alive latency, malformed POSTs, stop.

A reply leaves the daemon in two writes, so a kept-alive connection
stalls on the client's delayed ACK unless the daemon sets TCP_NODELAY;
a POST whose body length is not one plain ``Content-Length`` of at most
``MAX_BODY_BYTES`` gets one typed error and a closed connection; and once ``stop_http`` returns, a
connection opened before it gets no answer.
"""

import http.client
import json
import socket
import statistics
import threading
import time

import pytest

from repro.serve.client import SMOKE_SOURCE, HttpClient
from repro.serve.daemon import MAX_BODY_BYTES, Daemon
from repro.serve.session import SessionManager

#: How long a raw-socket test waits for the daemon to answer and close.
RAW_TIMEOUT = 5.0


@pytest.fixture()
def served():
    daemon = Daemon(SessionManager(store=None))
    port = daemon.start_http()
    yield daemon, port
    daemon.stop_http()


def _post(conn, payload) -> dict:
    conn.request("POST", "/v1/query", body=json.dumps(payload).encode(),
                 headers={"Content-Type": "application/json"})
    return json.loads(conn.getresponse().read())


def test_kept_alive_round_trips_do_not_wait_for_delayed_ack(served):
    _, port = served
    request = {"op": "tables", "source": SMOKE_SOURCE, "name": "smoke"}
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=RAW_TIMEOUT)
    try:
        assert _post(conn, request)["ok"]  # compile once, untimed
        times = []
        for _ in range(20):
            started = time.perf_counter()
            assert _post(conn, request)["ok"]
            times.append((time.perf_counter() - started) * 1000.0)
    finally:
        conn.close()
    # A Nagle-held body waits ~40 ms for the client's delayed ACK.
    assert statistics.median(times) < 20.0, times


def _raw_exchange(port: int, request: bytes) -> bytes:
    """Send *request* in one write; everything the daemon sends until EOF."""
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=RAW_TIMEOUT) as sock:
        sock.sendall(request)
        chunks = []
        while True:
            data = sock.recv(65536)  # socket.timeout: the daemon hung
            if not data:
                return b"".join(chunks)
            chunks.append(data)


def _assert_one_protocol_error_then_eof(raw: bytes) -> None:
    head, sep, body = raw.partition(b"\r\n\r\n")
    assert sep, raw
    status, *header_lines = head.decode("latin-1").split("\r\n")
    assert status.split()[1] == "400", raw
    headers = dict(line.split(": ", 1) for line in header_lines)
    assert headers["Connection"] == "close"
    assert len(body) == int(headers["Content-Length"]), raw  # nothing after
    reply = json.loads(body)
    assert reply["ok"] is False
    assert reply["error"]["kind"] == "protocol"


@pytest.mark.parametrize("header,body", [
    (b"Content-Length: abc", b""),
    (b"Content-Length: -1", b""),
    (b"Transfer-Encoding: chunked", b"5\r\n[1,2]\r\n0\r\n\r\n"),
    # Answered before any body byte is read: none is ever sent.
    ("Content-Length: {}".format(MAX_BODY_BYTES + 1).encode(), b""),
], ids=["not-a-number", "negative", "chunked", "over-the-cap"])
def test_malformed_post_gets_one_typed_error_then_eof(served, header, body):
    _, port = served
    raw = _raw_exchange(
        port, b"POST /v1/query HTTP/1.1\r\nHost: localhost\r\n"
        b"Content-Type: application/json\r\n" + header + b"\r\n\r\n" + body)
    _assert_one_protocol_error_then_eof(raw)


def test_stopped_daemon_answers_nothing_on_an_open_connection(served):
    daemon, port = served
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=RAW_TIMEOUT)
    try:
        assert _post(conn, {"op": "ping"})["ok"]
        daemon.stop_http()
        with pytest.raises((http.client.HTTPException, OSError)):
            _post(conn, {"op": "ping"})
    finally:
        conn.close()


def test_shutdown_op_reply_goes_out_while_the_daemon_stops(served):
    daemon, port = served

    def drain_on_shutdown():
        if daemon.shutdown_event.wait(RAW_TIMEOUT):
            daemon.drain()

    stopper = threading.Thread(target=drain_on_shutdown, daemon=True)
    stopper.start()
    with HttpClient(port) as client:
        reply = client.query({"op": "shutdown", "id": "bye"})
    stopper.join(RAW_TIMEOUT)
    assert reply["ok"] and reply["result"]["stopping"] is True
    assert not stopper.is_alive()
