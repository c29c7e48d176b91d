"""The one span-tree renderer, plus ``repro profile``'s counter table.

:func:`render_span_tree` draws span dicts shaped like
:meth:`repro.obs.core.Span.to_json` output; ``repro profile``, ``repro
client --debug`` and ``repro trace show`` all print through it.  Each
line shows wall time, share of the root and attributes; an
``(unaccounted)`` line marks any parent whose children leave a visible
gap, so the times always explain the root.  A second bracket marks
``ERROR=``, process boundaries (spans carrying ``proc``/``origin``, as
the trace viewer supplies) and ``(detached)`` roots whose parent was
never recorded.
"""

from typing import Dict, List, Optional

from repro.obs import core, metrics
from repro.util.tables import render_table

#: Gaps below this share of the root are not worth a line of output.
_GAP_FRACTION = 0.02


def render_span_tree(spans: List[dict]) -> str:
    """*spans* (any order of parents and children) as an indented tree.

    A span whose ``parent`` is not among the spans is a root; roots
    keep their input order, detached ones last, and so do children.
    """
    if not spans:
        return "(no spans recorded)"
    ids = {span["id"] for span in spans}
    children: Dict[object, List[dict]] = {}
    roots: List[dict] = []
    for span in spans:
        if span.get("parent") in ids:
            children.setdefault(span["parent"], []).append(span)
        else:
            roots.append(span)
    lines: List[str] = []

    def line(indent: str, name: str, ms: float, root_ms: float) -> str:
        return "{}{:<{}} {:>9.3f} ms  {:>5.1f}%".format(
            indent, name, max(1, 36 - len(indent)), ms,
            100.0 * ms / root_ms)

    def walk(span: dict, indent: str, parent: Optional[dict],
             root_ms: float) -> None:
        ms = float(span["duration_ms"])
        text = line(indent, span["name"], ms, root_ms)
        attrs = span.get("attrs") or {}
        if attrs:
            text += "  [{}]".format(", ".join(
                "{}={}".format(k, v) for k, v in sorted(attrs.items())))
        marks = []
        proc = span.get("proc")
        if proc is not None and (parent is None or parent.get("proc") != proc):
            marks.append("proc={} {}".format(proc, span.get("origin")))
        if parent is None and span.get("parent") is not None:
            marks.append("(detached)")
        if span.get("error"):
            marks.append("ERROR={}".format(span["error"]))
        if marks:
            text += "  [{}]".format(", ".join(marks))
        lines.append(text)
        kids = children.get(span["id"], [])
        for kid in kids:
            walk(kid, indent + "  ", span, root_ms)
        gap = ms - sum(float(kid["duration_ms"]) for kid in kids)
        if kids and gap > _GAP_FRACTION * root_ms:
            lines.append(line(indent + "  ", "(unaccounted)", gap, root_ms))

    for root in sorted(roots, key=lambda s: s.get("parent") is not None):
        walk(root, "", None, float(root["duration_ms"]) or 1e-12)
    return "\n".join(lines)


def render_phase_tree(recorder: Optional[core.Recorder] = None) -> str:
    """The recorder's spans through :func:`render_span_tree`."""
    recorder = recorder or core.recorder()
    return render_span_tree(
        [s.to_json(recorder.epoch) for s in recorder.spans()])


def tree_check(recorder: Optional[core.Recorder] = None,
               tolerance: float = 0.25) -> None:
    """Assert every parent's children sum to at most parent + tolerance.

    ``tolerance`` is a fraction of the parent span's duration plus a
    small absolute epsilon for sub-millisecond phases.  Used by the
    profile tests and ``make profile-smoke``.
    """
    recorder = recorder or core.recorder()
    children = recorder.children_of()
    for span in recorder.spans():
        kids = children.get(span.span_id, [])
        if not kids:
            continue
        kid_sum = sum(k.duration for k in kids)
        bound = span.duration * (1.0 + tolerance) + 1e-3
        if kid_sum > bound:
            raise AssertionError(
                "children of span {!r} sum to {:.6f}s > parent "
                "{:.6f}s (+{:.0%} tolerance)".format(
                    span.name, kid_sum, span.duration, tolerance))


def render_counter_table(registry: Optional[metrics.MetricsRegistry] = None,
                         top: int = 20) -> str:
    """The top-*top* counters/gauges by value, as an aligned table."""
    registry = registry if registry is not None else metrics.registry()
    rows = []
    for entry in registry.snapshot():
        if entry["kind"] == "histogram":
            value = entry["count"]
            detail = "n={} sum={}".format(entry["count"], round(entry["sum"], 3))
        else:
            value = entry["value"]
            detail = ""
        labels = ",".join(
            "{}={}".format(k, v) for k, v in sorted(entry["labels"].items()))
        rows.append((value, entry["name"], labels, entry["kind"], detail))
    rows.sort(key=lambda r: (-r[0], r[1], r[2]))
    shown = [[name, labels, kind, _fmt_value(value) or detail]
             for value, name, labels, kind, detail in rows[:top]]
    if not shown:
        return "(no metrics recorded)"
    return render_table(
        ["Metric", "Labels", "Kind", "Value"], shown,
        title="Top {} metrics".format(min(top, len(rows))))


def _fmt_value(value) -> str:
    if isinstance(value, float) and value != int(value):
        return "{:.3f}".format(value)
    return str(int(value))
