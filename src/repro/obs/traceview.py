"""Stitch trace records from many processes into one tree, and report.

A trace that crossed process boundaries lands in the
:class:`~repro.obs.tracestore.TraceStore` as several records — one per
process/operation — each carrying its own span list (span ids are
process-local) and, except for the origin record, a remote
``(proc, span)`` parent.  :func:`merge_trace` keys every span globally
as ``(proc, span_id)`` and reattaches each record's root spans under
their remote parent, producing the single parent-linked tree the
``repro trace show`` renderer walks: client span → daemon request span
→ forked corpus-worker span, process boundaries annotated.

A parent may legitimately be missing — its record evicted, torn, or
simply not flushed yet — so orphaned subtrees surface as extra roots
marked ``(detached)`` rather than vanishing: a partial trace that
renders is worth more than a perfect trace that raises.
:func:`render_trace` draws the same forest through the one span-tree
renderer, :func:`repro.obs.profile.render_span_tree`.

:func:`rollup` is the flamegraph-style aggregate behind ``repro trace
top``: total/self milliseconds per span name (``--by phase``) or per
record op (``--by op``) across every stored trace.
"""

from typing import Dict, List, Optional, Tuple

from repro.obs.profile import render_span_tree
from repro.util.tables import render_table

__all__ = ["TraceNode", "merge_trace", "render_trace", "rollup",
           "summarize_traces"]

#: Global span key: the process token plus the process-local span id.
NodeKey = Tuple[str, int]


class TraceNode:
    """One span in the merged cross-process tree."""

    __slots__ = ("key", "name", "ms", "proc", "origin", "error",
                 "attrs", "children", "detached")

    def __init__(self, key: NodeKey, name: str, ms: float, proc: str,
                 origin: str, error: Optional[str], attrs: dict):
        self.key = key
        self.name = name
        self.ms = ms
        self.proc = proc
        self.origin = origin
        self.error = error
        self.attrs = attrs
        self.children: List["TraceNode"] = []
        self.detached = False


def _global_spans(records: List[dict]) -> List[dict]:
    """Every span of *records* keyed globally, in key order.

    ``id`` becomes the ``(proc, span id)`` key and ``parent`` the
    parent's key — for a record's root spans, the remote parent the
    producing scope carried (None for the origin record).  Each span
    also gains its record's ``proc`` and ``origin``.  On a duplicate
    flush the first write wins.
    """
    spans: Dict[NodeKey, dict] = {}
    for record in records:
        proc = record["proc"]
        remote = None
        if record.get("parent") is not None:
            remote = (record["parent"]["proc"], record["parent"]["span"])
        for span in record["spans"]:
            key = (proc, span["id"])
            if key not in spans:
                parent = (remote if span.get("parent") is None
                          else (proc, span["parent"]))
                spans[key] = dict(span, id=key, parent=parent, proc=proc,
                                  origin=record["origin"])
    return [spans[key] for key in sorted(spans)]


def merge_trace(records: List[dict]) -> List[TraceNode]:
    """Merge one trace's records into root :class:`TraceNode` s.

    Returns the forest's roots in deterministic order (attached roots
    first, then detached subtrees, each by key).  Records are assumed
    to belong to a single trace; callers group by trace id first.
    """
    spans = _global_spans(records)
    nodes = {s["id"]: TraceNode(s["id"], s["name"], float(s["duration_ms"]),
                                s["proc"], s["origin"], s.get("error"),
                                s.get("attrs") or {})
             for s in spans}
    roots: List[TraceNode] = []
    for span in spans:
        node = nodes[span["id"]]
        parent = nodes.get(span["parent"])
        if parent is None:
            node.detached = span["parent"] is not None
            roots.append(node)
        else:
            parent.children.append(node)
    roots.sort(key=lambda n: n.detached)
    return roots


def render_trace(trace_id: str, records: List[dict]) -> str:
    """The merged tree as indented text, process boundaries marked."""
    procs = sorted({r["proc"] for r in records})
    origins = sorted({r["origin"] for r in records})
    header = "trace {}  ({} records, {} processes: {})".format(
        trace_id, len(records), len(procs), ", ".join(origins))
    return "{}\n{}\n".format(header, render_span_tree(_global_spans(records)))


def rollup(records: List[dict], by: str = "phase") -> List[List[object]]:
    """Aggregate rows across records: ``[key, count, total, self, share]``.

    ``by="phase"`` groups spans by name with **self** time (total minus
    direct in-process children — the flamegraph number); ``by="op"``
    groups whole records by their operation.
    """
    if by == "op":
        totals: Dict[str, List[float]] = {}
        for record in records:
            entry = totals.setdefault(record["op"], [0, 0.0])
            entry[0] += 1
            entry[1] += float(record["ms"])
        grand = sum(v[1] for v in totals.values()) or 1.0
        return [
            [op, int(count), round(total, 3), round(total, 3),
             "{:.1f}%".format(100.0 * total / grand)]
            for op, (count, total) in
            sorted(totals.items(), key=lambda kv: -kv[1][1])
        ]
    if by != "phase":
        raise ValueError("rollup 'by' must be 'phase' or 'op', got {!r}"
                         .format(by))
    total_ms: Dict[str, float] = {}
    self_ms: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    for record in records:
        spans = record["spans"]
        child_ms: Dict[int, float] = {}
        for span in spans:
            if span.get("parent") is not None:
                child_ms[int(span["parent"])] = (
                    child_ms.get(int(span["parent"]), 0.0)
                    + float(span.get("duration_ms", 0.0)))
        for span in spans:
            name = span.get("name", "?")
            duration = float(span.get("duration_ms", 0.0))
            counts[name] = counts.get(name, 0) + 1
            total_ms[name] = total_ms.get(name, 0.0) + duration
            own = duration - child_ms.get(int(span["id"]), 0.0)
            self_ms[name] = self_ms.get(name, 0.0) + max(own, 0.0)
    grand = sum(self_ms.values()) or 1.0
    return [
        [name, counts[name], round(total_ms[name], 3),
         round(self_ms[name], 3),
         "{:.1f}%".format(100.0 * self_ms[name] / grand)]
        for name in sorted(self_ms, key=lambda n: -self_ms[n])
    ]


def render_rollup(records: List[dict], by: str = "phase") -> str:
    """The rollup as a table (``repro trace top``)."""
    rows = rollup(records, by=by)
    if not rows:
        return "(no trace records)\n"
    return render_table(
        [by, "count", "total ms", "self ms", "self share"], rows,
        title="trace rollup by {} over {} records".format(
            by, len(records)),
        align_left=(0, 4)) + "\n"


def summarize_traces(grouped: Dict[str, List[dict]]) -> List[dict]:
    """One summary row per trace (``repro trace ls`` / ``/v1/traces``).

    Newest first by record timestamp, so dashboards naturally show the
    live tail of the store.
    """
    summaries = []
    for trace_id, records in grouped.items():
        procs = sorted({r["proc"] for r in records})
        origins = sorted({r["origin"] for r in records})
        ops = sorted({r["op"] for r in records})
        summaries.append({
            "trace": trace_id,
            "records": len(records),
            "procs": len(procs),
            "origins": origins,
            "ops": ops,
            "ms": round(max(float(r["ms"]) for r in records), 3),
            "ok": all(r["ok"] for r in records),
            "ts": max(r["ts"] for r in records),
        })
    summaries.sort(key=lambda s: s["ts"], reverse=True)
    return summaries
