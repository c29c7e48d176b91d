"""repro.obs — zero-dependency tracing, metrics and logging.

The observability layer (DESIGN.md §6e, §6f, §6j, §6k), one module per
job:

* :mod:`~repro.obs.core` — timed :class:`Span` phases, the process-wide
  :class:`Recorder` (a no-op unless enabled), request trace scopes;
* :mod:`~repro.obs.metrics` — the counter/gauge/histogram registry;
* :mod:`~repro.obs.log` — leveled stderr logging (``-q``/``-v``);
* :mod:`~repro.obs.jsonl` — the one JSONL record layer: per-kind
  schemas, the torn-append seam, the reader, the validator CLI;
* :mod:`~repro.obs.sampler` — head sampling, ``traceparent`` context;
* :mod:`~repro.obs.tracestore` — the bounded trace-record store (and
  the ``--trace FILE.jsonl`` record);
* :mod:`~repro.obs.traceview` — cross-process trace merge and rollups;
* :mod:`~repro.obs.profile` — the one span-tree renderer, counter table;
* :mod:`~repro.obs.history` — the benchmark ledger's records;
* :mod:`~repro.obs.regress` — noise-banded regression detection;
* :mod:`~repro.obs.quantile` — the one exact quantile helper;
* :mod:`~repro.obs.reqlog` — the daemon's one request ring (recent
  requests, burn rates, per-op latency gauges) and access log;
* :mod:`~repro.obs.promtext` — Prometheus text rendering (a formatter
  over the registry, which owns metric naming) and the one parser of
  that format;
* :mod:`~repro.obs.top` — ``repro top``, the live daemon dashboard.

Instrumented code imports the conveniences re-exported here::

    from repro import obs

    with obs.span("analysis.build", analysis=name):
        ...
    obs.registry().counter("alias.queries").inc()
"""

from repro.obs.core import (
    NULL_SPAN,
    NullSpan,
    Recorder,
    Span,
    disable,
    enable,
    enabled,
    recorder,
    reset,
    span,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    registry,
)

__all__ = [
    "NULL_SPAN",
    "NullSpan",
    "Recorder",
    "Span",
    "span",
    "enable",
    "disable",
    "enabled",
    "recorder",
    "reset",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "registry",
]
