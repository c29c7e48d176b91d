"""The daemon's request ring and its slow-request access log.

Two sinks fed once per request by :meth:`Daemon.handle_request`:

* :class:`RequestJournal` — one bounded ring of finished requests (op,
  trace id, wall ms, cache outcome, ok/error kind).  Recording is an
  O(1) append; everything derived is computed when read:
  :meth:`~RequestJournal.snapshot` is the ``GET /v1/requests`` payload,
  and :meth:`~RequestJournal.publish` computes the SLO **burn rate**
  per sliding window (the fraction of requests that breached the
  objective; an error always breaches) with exact quantiles and
  slowest-trace exemplars, and refreshes the burn gauges and the per-op
  ``serve.request.ms.p50/p95/p99`` gauges (exact over the longest
  window).  The daemon publishes when ``/v1/metrics`` or ``stats`` is
  read.

* :class:`AccessLog` — a JSONL log of *slow* requests (wall time over
  ``--slow-ms``), deterministically sampled (every Nth slow request) so
  a latency storm cannot turn the log into the bottleneck.  Lines are
  ``access_log`` records of :mod:`repro.obs.jsonl`.

Neither sink ever raises into the request path: a failed log write
increments ``serve.accesslog.errors`` and serving continues.
"""

import threading
import time
from collections import deque
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs import jsonl, metrics
from repro.obs.quantile import quantile

__all__ = ["RequestRecord", "RequestJournal", "AccessLog",
           "DEFAULT_RING_SIZE", "DEFAULT_REQUESTS_LIMIT", "DEFAULT_WINDOWS",
           "DEFAULT_SLO_MS"]

#: Ring capacity: requests beyond this drop oldest-first even while
#: still inside the longest window (bounded memory beats exactness).
DEFAULT_RING_SIZE = 8192

#: How many requests ``GET /v1/requests`` returns without ``?limit=``.
DEFAULT_REQUESTS_LIMIT = 256

#: ``(label, seconds)`` sliding windows: the fast/slow burn pair.
DEFAULT_WINDOWS: Tuple[Tuple[str, float], ...] = (("5m", 300.0),
                                                  ("1h", 3600.0))

#: Default per-request latency objective, milliseconds (``--slo-ms``).
DEFAULT_SLO_MS = 250.0

#: Exemplars reported per window: the slowest requests' trace ids.
EXEMPLARS = 3

#: The latency quantiles every window and every op reports.
QUANTILES = (0.5, 0.95, 0.99)


class RequestRecord:
    """One served request, as journalled."""

    __slots__ = ("op", "trace_id", "unit", "ms", "ok", "error_kind",
                 "cache", "ts")

    def __init__(self, op: str, trace_id: str, unit: Optional[str],
                 ms: float, ok: bool, error_kind: Optional[str],
                 cache: Optional[str], ts: float):
        self.op = op
        self.trace_id = trace_id
        self.unit = unit
        self.ms = ms
        self.ok = ok
        self.error_kind = error_kind
        #: Session-cache outcome for source ops: hit/restore/build/None.
        self.cache = cache
        self.ts = ts

    def to_json(self) -> dict:
        return {
            "op": self.op,
            "trace": self.trace_id,
            "unit": self.unit,
            "ms": round(self.ms, 3),
            "ok": self.ok,
            "error": self.error_kind,
            "cache": self.cache,
            "ts": round(self.ts, 3),
        }


def _quantiles(values: List[float]) -> Dict[str, Optional[float]]:
    ordered = sorted(values)
    out = {}
    for q in QUANTILES:
        value = quantile(ordered, q)
        out["p{}".format(int(round(q * 100)))] = \
            None if value is None else round(value, 3)
    return out


class RequestJournal:
    """Thread-safe bounded ring of recent :class:`RequestRecord`\\ s."""

    def __init__(self, size: int = DEFAULT_RING_SIZE,
                 slo_ms: float = DEFAULT_SLO_MS,
                 windows: Sequence[Tuple[str, float]] = DEFAULT_WINDOWS,
                 clock: Callable[[], float] = time.monotonic):
        if not windows:
            raise ValueError("RequestJournal needs at least one window")
        self.slo_ms = slo_ms
        self.windows = tuple(windows)
        self._clock = clock
        #: ``(monotonic arrival time, record)``, oldest first.
        self._ring: "deque[Tuple[float, RequestRecord]]" = \
            deque(maxlen=max(1, size))
        self._lock = threading.Lock()
        self._total = 0

    def record(self, record: RequestRecord) -> None:
        now = self._clock()
        with self._lock:
            self._ring.append((now, record))
            self._total += 1

    @property
    def total(self) -> int:
        """Requests ever journalled (ring evictions included)."""
        with self._lock:
            return self._total

    def recent(self, limit: Optional[int] = None) -> List[RequestRecord]:
        """Newest-first records, at most *limit* (default: all)."""
        with self._lock:
            records = [record for _t, record in self._ring]
        records.reverse()
        return records if limit is None else records[:limit]

    def snapshot(self, limit: Optional[int] = None) -> dict:
        """The ``GET /v1/requests`` payload."""
        if limit is None:
            limit = DEFAULT_REQUESTS_LIMIT
        return {
            "total": self.total,
            "requests": [r.to_json() for r in self.recent(limit)],
        }

    def publish(self) -> Dict[str, dict]:
        """Per-window burn rollup; refreshes the burn and per-op gauges.

        Each window reports its request and breach counts, the burn
        rate (None when empty), exact latency quantiles and the slowest
        requests' trace ids.  The per-op quantile gauges cover the
        longest window; an op with no request in it keeps its last value.
        """
        now = self._clock()
        with self._lock:
            events = list(self._ring)
        registry = metrics.registry()
        out: Dict[str, dict] = {}
        for label, seconds in self.windows:
            window = [r for t, r in events if t >= now - seconds]
            breaches = sum(1 for r in window
                           if not r.ok or r.ms > self.slo_ms)
            rate = round(breaches / len(window), 4) if window else None
            registry.gauge("serve.slo.burn_rate_" + label).set(
                rate if rate is not None else 0.0)
            slowest = sorted(window, key=lambda r: -r.ms)[:EXEMPLARS]
            out[label] = {
                "seconds": seconds,
                "requests": len(window),
                "breaches": breaches,
                "burn_rate": rate,
                "quantiles_ms": _quantiles([r.ms for r in window]),
                "slowest": [{"trace": r.trace_id, "ms": round(r.ms, 3)}
                            for r in slowest],
            }
        horizon = now - max(seconds for _label, seconds in self.windows)
        per_op: Dict[str, List[float]] = {}
        for t, record in events:
            if t >= horizon:
                per_op.setdefault(record.op, []).append(record.ms)
        for op, values in per_op.items():
            for name, value in _quantiles(values).items():
                registry.gauge("serve.request.ms." + name, op=op).set(value)
        return out


class AccessLog:
    """Sampled JSONL log of slow requests (``--slow-ms``)."""

    def __init__(self, path: str, slow_ms: float, sample: int = 1):
        self.path = path
        self.slow_ms = slow_ms
        #: Log every Nth slow request (1 = all); deterministic counter
        #: based so tests and replays see the same lines.
        self.sample = max(1, sample)
        self._lock = threading.Lock()
        self._slow_seen = 0

    def maybe_log(self, record: RequestRecord) -> bool:
        """Write *record* if slow and selected by sampling; True if written."""
        if record.ms < self.slow_ms:
            return False
        with self._lock:
            self._slow_seen += 1
            if (self._slow_seen - 1) % self.sample != 0:
                metrics.registry().counter("serve.accesslog.sampled_out").inc()
                return False
            line = dict(record.to_json(), slow=True, kind=jsonl.ACCESS_LOG,
                        schema=jsonl.KINDS[jsonl.ACCESS_LOG].version)
            try:
                jsonl.append(self.path, line)
            except (OSError, ValueError, TypeError):
                # Logging must never fail a request.
                metrics.registry().counter("serve.accesslog.errors").inc()
                return False
        metrics.registry().counter("serve.accesslog.lines").inc()
        return True


def now() -> float:
    """Wall-clock seconds (split out so tests can monkeypatch)."""
    return time.time()
