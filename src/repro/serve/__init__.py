"""Analysis-as-a-service: the ``repro serve`` daemon (DESIGN.md §6h).

Every CLI invocation pays the full cold pipeline — parse, typecheck,
lower, fact collection, analysis build — before answering a single
query, which dominates repeated workloads.  This package keeps analyses
warm instead:

* :mod:`repro.serve.protocol` — the versioned JSONL request/response
  protocol (batched ``alias`` / ``tables`` / ``limit`` / ``facts``
  queries) shared by both transports;
* :mod:`repro.serve.factcache` — the versioned on-disk fact store:
  one checksummed JSON partition per module content hash, holding
  per-procedure hashes, every served configuration's Table 5 counts
  and the ``facts`` op's world summaries, with LRU eviction under a
  size cap;
* :mod:`repro.serve.session` — the warm session manager: in-memory LRU
  of module sessions over the fact store, content-hash invalidation
  with per-procedure change accounting, and an optional differential
  mode that pins every served answer to the cold reference engine;
* :mod:`repro.serve.daemon` — the long-running daemon: JSONL over
  stdio and a localhost HTTP shim, with per-request spans, counters and
  latency histograms in :mod:`repro.obs`;
* :mod:`repro.serve.client` — clients for both transports plus the
  ``make serve-smoke`` battery;
* :mod:`repro.serve.bench` — ``repro bench serve``: warm-vs-cold
  throughput, recorded to the benchmark ledger and gated.
"""

from repro.serve.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    Request,
    error_response,
    ok_response,
)
from repro.serve.factcache import FactStore
from repro.serve.session import SessionManager

__all__ = [
    "PROTOCOL_VERSION",
    "ProtocolError",
    "Request",
    "error_response",
    "ok_response",
    "FactStore",
    "SessionManager",
]
