"""``repro top`` — a live terminal dashboard over a serving daemon.

Polls ``GET /v1/metrics`` (Prometheus text), ``GET /v1/requests`` (the
recent-request journal) and ``GET /v1/ping`` on an interval and renders
one frame per poll: daemon state (degraded / draining), request
throughput (total and the delta-rate between polls), per-op latency
quantiles from the daemon's windowed gauges (exact over the last hour),
SLO ok/breach counts, session/fact-cache hit rates, and the slowest
recent traces.

``--once`` fetches and renders exactly one frame and exits 0 — the CI
mode ``make obs-smoke`` drives.  The live mode clears the screen with
ANSI escapes between frames and exits cleanly on Ctrl-C.

Everything here reads the *exposition text*, not in-process registries:
``repro top`` works against any daemon, including one in another
process or container, which is the point of pull-based metrics.
"""

import http.client
import json
import sys
import time
import urllib.error
import urllib.request
from typing import Dict, List, Optional

from repro.obs.promtext import PromSamples, parse_prom
from repro.util.tables import render_table

__all__ = ["parse_prom", "fetch_snapshot", "render_frame", "run_top"]

#: Seconds between polls in live mode.
DEFAULT_INTERVAL = 2.0

#: How many slow recent requests the frame lists.
SLOW_ROWS = 5

#: HTTP timeout per poll, seconds.
FETCH_TIMEOUT = 10.0


class TopError(RuntimeError):
    """The daemon could not be polled or answered garbage."""


def _sum_family(samples: PromSamples, name: str) -> float:
    return sum(v for (n, _), v in samples.items() if n == name)


def _by_label(samples: PromSamples, name: str,
              label: str) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for (n, labels), value in samples.items():
        if n != name:
            continue
        labelled = dict(labels).get(label)
        if labelled is not None:
            out[labelled] = out.get(labelled, 0.0) + value
    return out


class Snapshot:
    """One poll of the daemon: metrics + journal + ping, timestamped."""

    def __init__(self, samples: PromSamples, journal: dict, ping: dict,
                 taken: float):
        self.samples = samples
        self.journal = journal
        self.ping = ping
        self.taken = taken

    @property
    def total_requests(self) -> float:
        return _sum_family(self.samples, "repro_serve_request_total")


def _get(base: str, path: str) -> str:
    try:
        with urllib.request.urlopen(base + path,
                                    timeout=FETCH_TIMEOUT) as resp:
            return resp.read().decode("utf-8")
    except (urllib.error.URLError, http.client.HTTPException,
            OSError) as err:
        # HTTPException covers a listener that is not speaking HTTP at
        # all (BadStatusLine etc.) — still "could not poll the daemon",
        # and it must surface as a one-line error, not a traceback.
        raise TopError("GET {} failed: {}".format(path, err))


def fetch_snapshot(port: int, host: str = "127.0.0.1") -> Snapshot:
    """Poll one frame's worth of state from a live daemon."""
    base = "http://{}:{}".format(host, port)
    metrics_text = _get(base, "/v1/metrics")
    try:
        journal = json.loads(_get(base, "/v1/requests"))
        ping = json.loads(_get(base, "/v1/ping"))
    except json.JSONDecodeError as err:
        raise TopError("daemon answered non-JSON: {}".format(err))
    if not isinstance(journal, dict) or not isinstance(ping, dict):
        raise TopError(
            "daemon answered JSON of the wrong shape (journal: {}, "
            "ping: {})".format(type(journal).__name__,
                               type(ping).__name__))
    return Snapshot(parse_prom(metrics_text), journal, ping,
                    time.monotonic())


def render_frame(snapshot: Snapshot,
                 previous: Optional[Snapshot] = None) -> str:
    """One dashboard frame as plain text."""
    samples = snapshot.samples
    ping = (snapshot.ping or {}).get("result", {})
    lines: List[str] = []

    total = snapshot.total_requests
    errors = _sum_family(samples, "repro_serve_request_errors")
    if previous is not None and snapshot.taken > previous.taken:
        rate = (total - previous.total_requests) / \
            (snapshot.taken - previous.taken)
    else:
        rate = None
    state = []
    if ping.get("degraded"):
        state.append("DEGRADED")
    if ping.get("draining"):
        state.append("DRAINING")
    lines.append("repro top — daemon v{} proto {}  [{}]".format(
        ping.get("version", "?"), ping.get("protocol", "?"),
        " ".join(state) or "healthy"))
    lines.append(
        "requests: {:.0f} total, {:.0f} errors   rate: {} req/s   "
        "slo: {:.0f} ms".format(
            total, errors,
            "{:.1f}".format(rate) if rate is not None else "n/a",
            ping.get("slo_ms") or 0.0))

    hits = _sum_family(samples, "repro_serve_session_hit")
    misses = _sum_family(samples, "repro_serve_session_miss")
    store_hits = _sum_family(samples, "repro_serve_factcache_hit")
    store_misses = _sum_family(samples, "repro_serve_factcache_miss")

    def ratio(hit: float, miss: float) -> str:
        seen = hit + miss
        return "{:.1f}%".format(100.0 * hit / seen) if seen else "n/a"

    lines.append("cache: session {} ({:.0f}/{:.0f})   fact store {} "
                 "({:.0f}/{:.0f})".format(
                     ratio(hits, misses), hits, hits + misses,
                     ratio(store_hits, store_misses), store_hits,
                     store_hits + store_misses))

    def burn(label: str) -> str:
        value = samples.get(
            ("repro_serve_slo_burn_rate_" + label, ()))
        return "{:.1f}%".format(100.0 * value) if value is not None \
            else "n/a"

    sampled = _sum_family(samples, "repro_obs_trace_sampled")
    flushed = _sum_family(samples, "repro_obs_trace_flushed")
    lines.append("slo burn: 5m {}   1h {}   traces: {:.0f} sampled, "
                 "{:.0f} stored".format(burn("5m"), burn("1h"),
                                        sampled, flushed))
    lines.append("")

    # Per-op latency + SLO table from the windowed quantile gauges.
    counts = _by_label(samples, "repro_serve_request_total", "op")
    p50 = _by_label(samples, "repro_serve_request_ms_p50", "op")
    p95 = _by_label(samples, "repro_serve_request_ms_p95", "op")
    p99 = _by_label(samples, "repro_serve_request_ms_p99", "op")
    slo_ok = _by_label(samples, "repro_serve_slo_ok", "op")
    slo_breach = _by_label(samples, "repro_serve_slo_breach", "op")
    op_errors = _by_label(samples, "repro_serve_request_errors", "op")
    rows = []
    for op in sorted(counts):
        rows.append([
            op, int(counts[op]), int(op_errors.get(op, 0)),
            _ms(p50.get(op)), _ms(p95.get(op)), _ms(p99.get(op)),
            int(slo_ok.get(op, 0)), int(slo_breach.get(op, 0)),
        ])
    if rows:
        lines.append(render_table(
            ["op", "reqs", "err", "p50 ms", "p95 ms", "p99 ms",
             "slo ok", "breach"], rows))
    else:
        lines.append("(no requests served yet)")
    lines.append("")

    # Slowest recent traces out of the journal ring.
    recent = (snapshot.journal or {}).get("requests", [])
    slow = sorted(recent, key=lambda r: -float(r.get("ms", 0.0)))[:SLOW_ROWS]
    if slow:
        lines.append(render_table(
            ["trace", "op", "ms", "cache", "status"],
            [[r.get("trace", "?"), r.get("op", "?"),
              "{:.2f}".format(float(r.get("ms", 0.0))),
              r.get("cache") or "-",
              "ok" if r.get("ok") else (r.get("error") or "error")]
             for r in slow],
            title="slowest recent requests", align_left=(0, 1, 3, 4)))
    else:
        lines.append("(request journal is empty)")
    return "\n".join(lines) + "\n"


def _ms(value: Optional[float]) -> str:
    return "{:.2f}".format(value) if value is not None else "-"


def run_top(port: int, host: str = "127.0.0.1",
            interval: float = DEFAULT_INTERVAL, once: bool = False,
            iterations: Optional[int] = None, out=None) -> int:
    """The ``repro top`` loop; returns a process exit code."""
    out = out if out is not None else sys.stdout
    previous: Optional[Snapshot] = None
    frame = 0
    try:
        while True:
            try:
                snapshot = fetch_snapshot(port, host)
            except TopError as err:
                print("repro top: {}".format(err), file=sys.stderr)
                return 1
            text = render_frame(snapshot, previous)
            if not once and frame > 0:
                out.write("\x1b[2J\x1b[H")
            out.write(text)
            out.flush()
            frame += 1
            previous = snapshot
            if once or (iterations is not None and frame >= iterations):
                return 0
            time.sleep(interval)
    except KeyboardInterrupt:
        return 0
