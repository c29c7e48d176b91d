"""A bounded on-disk store for sampled trace records.

The continuous-tracing pipeline (DESIGN.md §6k) flushes one **trace
record** per sampled request/operation: the trace id, the producing
process token and origin, wall time, the collected span tree, notes,
and — for work handed across a process boundary — the remote
``(proc, span)`` parent the subtree hangs under.  The daemon also
flushes every request that breaches its SLO, sampled or not (with no
spans unless they were collected, and its ``cache`` outcome and error
kind as notes), so the store is the one on-disk record of slow
requests.  ``repro trace`` and ``GET /v1/traces`` read these records
back and stitch the cross-process tree together
(:mod:`repro.obs.traceview`).

Layout: a directory of JSONL **segments**.  Concurrency without locks
comes from the same trick as the fact store's content-hashed partitions
— writers never share a file: each process appends to its own
``seg-{proc}-{n}.jsonl`` (the proc token is fork-aware, so pool workers
get their own segments too).  Segments rotate at
:data:`SEGMENT_MAX_BYTES`, and each time a writer opens a segment the
store evicts oldest-first until the closed ones fit ``max_bytes`` —
continuous tracing must never grow without bound.

Failure policy mirrors the serving stack's, in both directions:

* **writes never raise** — a trace record is telemetry, and telemetry
  must not take a request down.  Append failures are counted
  (``obs.trace.store_errors``) and dropped.
* **reads tolerate tearing** — a process dying mid-append leaves a
  truncated line; the shared reader (:func:`repro.obs.jsonl.read`)
  skips it with a warning and counts it in ``obs.trace.torn_skipped``.
  A line that decodes but fails the ``trace_record`` schema is
  corruption of a different kind and is skipped under its own counter
  (``obs.trace.invalid_skipped``) — a bad record must not hide the good
  ones around it.

A ``--trace FILE`` batch run writes one record (:func:`batch_record`)
in the same format, so the store also opens a single JSONL file as a
store of one segment: ``repro trace show ID --store FILE``.
"""

import uuid
from pathlib import Path
from typing import Dict, List, Optional

from repro.obs import core, jsonl, log, metrics
from repro.obs.reqlog import now as wall_now
from repro.obs.sampler import proc_id

__all__ = [
    "DEFAULT_TRACE_DIR", "DEFAULT_MAX_BYTES", "SEGMENT_MAX_BYTES",
    "TraceStore", "make_record", "batch_record", "mint_trace_id",
]

#: Where the CLI looks when ``--store`` is not given.
DEFAULT_TRACE_DIR = ".repro-traces"

#: Store size cap before oldest-first segment eviction.
DEFAULT_MAX_BYTES = 16 * 1024 * 1024

#: A writer rotates to a fresh segment past this many bytes.
SEGMENT_MAX_BYTES = 256 * 1024


def mint_trace_id() -> str:
    """A fresh trace id (16 hex chars)."""
    return uuid.uuid4().hex[:16]


def _record(trace: str, origin: str, op: str, ms: float, ok: bool,
            **fields) -> dict:
    """A ``trace_record``; *fields* fill or override the optional keys."""
    record = {
        "kind": jsonl.TRACE_RECORD,
        "schema": jsonl.KINDS[jsonl.TRACE_RECORD].version,
        "trace": trace,
        "proc": proc_id(),
        "origin": origin,
        "op": op,
        "unit": None,
        "ms": round(float(ms), 3),
        "ok": bool(ok),
        "ts": wall_now(),
        "parent": None,
        "spans": [],
        "notes": {},
        "dropped": 0,
    }
    record.update(fields)
    return record


def make_record(scope, origin: str, op: str, ms: float, ok: bool,
                unit: Optional[str] = None) -> dict:
    """One flushable record from a finished (collecting) trace scope."""
    parent = None
    if scope.remote_parent is not None:
        parent_proc, parent_span = scope.remote_parent
        parent = {"proc": parent_proc, "span": parent_span}
    return _record(
        scope.trace_id, origin, op, ms, ok, unit=unit, parent=parent,
        spans=scope.tree(),
        notes={k: core._jsonable(v) for k, v in scope.notes.items()},
        dropped=scope.dropped)


def batch_record(op: str, ms: float, ok: bool,
                 recorder: Optional[core.Recorder] = None,
                 registry: Optional[metrics.MetricsRegistry] = None) -> dict:
    """The ``--trace FILE`` record of one batch CLI run: every recorder
    span (no per-request cap) plus the registry snapshot under
    ``metrics``."""
    recorder = recorder or core.recorder()
    registry = registry if registry is not None else metrics.registry()
    return _record(
        mint_trace_id(), "cli", op, ms, ok,
        spans=[s.to_json(recorder.epoch) for s in recorder.spans()],
        metrics=registry.snapshot())


def _size(path: Path) -> int:
    try:
        return path.stat().st_size
    except OSError:
        return 0  # evicted or never written


class TraceStore:
    """Append-only segmented JSONL store under one directory."""

    def __init__(self, root, max_bytes: int = DEFAULT_MAX_BYTES,
                 segment_bytes: int = SEGMENT_MAX_BYTES):
        self.root = Path(root)
        self.max_bytes = max_bytes
        self.segment_bytes = segment_bytes
        self._segment: Optional[Path] = None
        self._segment_proc: Optional[str] = None

    # -- writing --------------------------------------------------------

    def append(self, record: dict) -> bool:
        """Durably append one record; returns False (and counts) on
        failure instead of raising — tracing must never fail a request.
        A torn append (the ``jsonl.append`` chaos point) is the
        reader's problem: it skips the line."""
        try:
            jsonl.append(self._current_segment(), record)
        except (OSError, ValueError, TypeError) as err:
            metrics.registry().counter("obs.trace.store_errors").inc()
            log.warn("trace store append failed: {}".format(err))
            return False
        metrics.registry().counter("obs.trace.flushed").inc()
        return True

    def _current_segment(self) -> Path:
        """This process's open segment, rotating once it reaches the
        size cap.

        Only opening a segment evicts, so an append between rotations
        lists no segments, and the store stays within ``max_bytes``
        plus each writer's open segment.
        """
        proc = proc_id()
        # A first write, a fork that changed our identity (never append
        # to an inherited segment) or a full segment opens a new one.
        if (self._segment is None or self._segment_proc != proc
                or _size(self._segment) >= self.segment_bytes):
            self._segment = self._next_segment(proc)
            self._segment_proc = proc
            self._evict()
        self.root.mkdir(parents=True, exist_ok=True)
        return self._segment

    def _next_segment(self, proc: str) -> Path:
        n = 0
        while True:
            candidate = self.root / "seg-{}-{:04d}.jsonl".format(proc, n)
            if not candidate.exists():
                return candidate
            n += 1

    def _evict(self) -> None:
        """Drop oldest segments until the store fits ``max_bytes``."""
        if self.max_bytes is None:
            return
        segments = self._segments()
        sizes = {segment: _size(segment) for segment in segments}
        total = sum(sizes.values())
        # Oldest first by (mtime, name); never evict the open segment —
        # a writer must not saw off the branch it is appending to.
        for segment in segments:
            if total <= self.max_bytes:
                break
            if segment == self._segment:
                continue
            try:
                segment.unlink()
            except OSError:
                continue
            total -= sizes[segment]
            metrics.registry().counter("obs.trace.evicted").inc()

    # -- reading --------------------------------------------------------

    def _segments(self) -> List[Path]:
        """Every segment, oldest first (mtime, then name for stability);
        a single JSONL file is a store of one segment."""
        if self.root.is_file():
            return [self.root]
        if not self.root.is_dir():
            return []
        segments = sorted(self.root.glob("seg-*.jsonl"))

        def age(path: Path):
            try:
                return (path.stat().st_mtime, path.name)
            except OSError:
                return (0.0, path.name)

        return sorted(segments, key=age)

    def records(self) -> List[dict]:
        """Every valid record, oldest segment first, append order within.

        Torn lines (not JSON) and invalid records are skipped with
        their own counters — see the module docstring.
        """
        out: List[dict] = []
        for segment in self._segments():
            try:
                result = jsonl.read(segment, jsonl.TRACE_RECORD)
            except OSError:
                continue  # evicted or torn away under us
            for lineno, _obj, problem in result.invalid:
                metrics.registry().counter("obs.trace.invalid_skipped").inc()
                log.warn("{}:{}: skipping invalid trace record: {}".format(
                    segment, lineno, problem))
            out.extend(result.records)
        return out

    def traces(self) -> Dict[str, List[dict]]:
        """Records grouped by trace id, preserving append order."""
        grouped: Dict[str, List[dict]] = {}
        for record in self.records():
            grouped.setdefault(record["trace"], []).append(record)
        return grouped

    def trace(self, trace_id: str) -> List[dict]:
        """Every record of one trace (empty when unknown)."""
        return [r for r in self.records() if r["trace"] == trace_id]

    def stats(self) -> dict:
        """Store shape for dashboards: segments, bytes, record count."""
        segments = self._segments()
        return {
            "root": str(self.root),
            "segments": len(segments),
            "bytes": sum(_size(segment) for segment in segments),
            "max_bytes": self.max_bytes,
        }
