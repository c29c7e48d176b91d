"""Prometheus text-format export of the metrics registry.

Renders the registry snapshot in the Prometheus exposition format
(version 0.0.4): ``# HELP``/``# TYPE`` headers, ``name{label="v"}
value`` samples, histogram ``_bucket``/``_sum``/``_count`` series with
cumulative ``le`` buckets.  :func:`render` is only a formatter: the
registry owns naming (:func:`repro.obs.metrics.metric_name` and the
rules it enforces at registration), so every family it renders has one
exported name, written as one contiguous block.  Any value formats
(NaN and +/-Inf in exposition form), and any label value is escaped.

``make bench-quick`` dumps a snapshot to ``BENCH_obs.prom`` next to
``BENCH_alias.json`` so perf PRs can diff analysis behaviour, not just
wall time.

The one parser of the format lives here too: :func:`parse` turns
exposition text into ``# HELP``/``# TYPE``/sample lines, each with the
first problem that makes it unreadable, and :func:`parse_prom` keeps
the readable samples (``repro top`` and the serving benchmark's metrics
scrape).
"""

import math
import re
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro.obs import metrics
from repro.obs.metrics import metric_name

_METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
_SAMPLE_RE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{(.*)\})?\s+(\S+)"
                        r"(\s+-?\d+)?$")
#: One ``name="value"`` label pair and its separator; the value may hold
#: any backslash escape here, and the legal ones are checked after.
_LABEL_PAIR_RE = re.compile(r'\s*([^=\s]*)\s*="((?:[^"\\]|\\.)*)"\s*(?:,|$)',
                            re.DOTALL)
_ESCAPE_RE = re.compile(r"\\(.)", re.DOTALL)

#: ``(metric name, sorted label items) -> value``.
PromSamples = Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float]


def _label_str(labels: dict, extra: Optional[dict] = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    parts = []
    for key in sorted(merged):
        value = str(merged[key]).replace("\\", "\\\\").replace('"', '\\"') \
            .replace("\n", "\\n")
        parts.append('{}="{}"'.format(key, value))
    return "{" + ",".join(parts) + "}"


def _fmt(value) -> str:
    if isinstance(value, int):
        return str(int(value))  # bools as 0/1
    value = math.nan if value is None else float(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value):
        return str(int(value))
    return str(value)


def render(registry: Optional[metrics.MetricsRegistry] = None,
           help_texts: Optional[dict] = None) -> str:
    """The whole registry in Prometheus text exposition format.

    *help_texts* optionally maps raw metric names (``serve.request.ms``)
    or exported names (``repro_serve_request_ms``) to ``# HELP`` text;
    HELP lines are emitted directly before the family's ``# TYPE`` line
    and only for families that have one (the default output — no HELP —
    is schema-pinned by tests).
    """
    registry = registry if registry is not None else metrics.registry()
    helps = {}
    for key, text in (help_texts or {}).items():
        helps[metric_name(key)] = str(text).replace("\\", "\\\\") \
            .replace("\n", "\\n")
    lines: List[str] = []
    family = None
    for entry in registry.snapshot():
        name = metric_name(entry["name"])
        kind = entry["kind"]
        if name != family:
            # snapshot() lists a metric's series together and the
            # registry keeps exported names unique: a family starts here.
            family = name
            if name in helps:
                lines.append("# HELP {} {}".format(name, helps[name]))
            lines.append("# TYPE {} {}".format(name, kind))
        labels = entry["labels"]
        if kind in ("counter", "gauge"):
            lines.append("{}{} {}".format(
                name, _label_str(labels), _fmt(entry["value"])))
        else:
            cumulative = 0
            for bound, count in zip(entry["buckets"], entry["bucket_counts"]):
                cumulative += count
                lines.append("{}_bucket{} {}".format(
                    name, _label_str(labels, {"le": _fmt(bound)}), cumulative))
            cumulative += entry["bucket_counts"][-1]
            lines.append("{}_bucket{} {}".format(
                name, _label_str(labels, {"le": "+Inf"}), cumulative))
            lines.append("{}_sum{} {}".format(
                name, _label_str(labels), _fmt(entry["sum"])))
            lines.append("{}_count{} {}".format(
                name, _label_str(labels), cumulative))
    return "\n".join(lines) + ("\n" if lines else "")


def write_prom(path: str,
               registry: Optional[metrics.MetricsRegistry] = None) -> int:
    """Write the snapshot to *path*; returns the number of lines."""
    text = render(registry)
    with open(path, "w") as f:
        f.write(text)
    return text.count("\n")


# ----------------------------------------------------------------------
# Parsing


class PromLine(NamedTuple):
    """One meaningful exposition line (blank and free comments dropped)."""

    lineno: int
    #: ``"HELP"``, ``"TYPE"`` or ``"sample"``.
    kind: str
    name: Optional[str]
    labels: Dict[str, str]
    #: The sample value, or the HELP text / TYPE kind.
    value: object
    #: Why the line is unreadable (the other fields are then partial).
    problem: Optional[str]


def parse_value(text: str) -> Optional[float]:
    """A sample value or ``le`` bound, or None when unparseable."""
    if text in ("+Inf", "Inf"):
        return float("inf")
    if text == "-Inf":
        return float("-inf")
    try:
        return float(text)
    except ValueError:
        return None


def _parse_labels(text: str) -> Tuple[Dict[str, str], Optional[str]]:
    """``k="v",...`` (brace-less interior) -> (labels, problem)."""
    labels: Dict[str, str] = {}
    pos = 0
    while pos < len(text):
        match = _LABEL_PAIR_RE.match(text, pos)
        if match is None:
            return labels, "malformed label text {!r}".format(text[pos:])
        name, raw = match.group(1, 2)
        if not _LABEL_NAME_RE.match(name):
            return labels, "bad label name {!r}".format(name)
        if name in labels:
            return labels, "duplicate label {!r}".format(name)
        if "\n" in raw:
            return labels, "unescaped newline in label value"
        for escape in _ESCAPE_RE.finditer(raw):
            if escape.group(1) not in '\\"n':
                return labels, "bad escape {} in label value".format(
                    escape.group())
        labels[name] = _ESCAPE_RE.sub(
            lambda m: "\n" if m.group(1) == "n" else m.group(1), raw)
        pos = match.end()
    return labels, None


def parse(text: str) -> Iterator[PromLine]:
    """Every ``# HELP``, ``# TYPE`` and sample line of *text*."""
    # Only "\n" ends a line: other separators may sit in label values.
    for lineno, raw in enumerate(text.split("\n"), 1):
        line = raw.rstrip()
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 2 or parts[1] not in ("HELP", "TYPE"):
                continue  # a free-form comment: legal, ignored
            problem = None
            if len(parts) < 3:
                problem = "# {} needs a metric name".format(parts[1])
            elif not _METRIC_NAME_RE.match(parts[2]):
                problem = "bad metric name {!r}".format(parts[2])
            yield PromLine(lineno, parts[1], parts[2] if len(parts) > 2
                           else None, {}, parts[3].strip()
                           if len(parts) > 3 else "", problem)
            continue
        match = _SAMPLE_RE.match(line)
        if not match:
            yield PromLine(lineno, "sample", None, {}, None,
                           "unparseable sample line")
            continue
        name, _, label_text, value_text = match.group(1, 2, 3, 4)
        labels, problem = _parse_labels(label_text or "")
        value = parse_value(value_text)
        if problem is None and value is None:
            problem = "bad sample value {!r}".format(value_text)
        yield PromLine(lineno, "sample", name, labels, value, problem)


def parse_prom(text: str) -> PromSamples:
    """The readable sample lines of *text* as a flat dict; lines with a
    problem are skipped, never raised."""
    return {(line.name, tuple(sorted(line.labels.items()))): line.value
            for line in parse(text)
            if line.kind == "sample" and line.problem is None}
