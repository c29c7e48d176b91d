"""A promtool-style linter for Prometheus text exposition (0.0.4).

The serving daemon exposes ``GET /v1/metrics`` and ``make bench-quick``
writes ``BENCH_obs.prom``; both are consumed by external scrapers, so
their format is a contract.  This module checks it the way
``promtool check metrics`` would, without the dependency:

* line grammar: ``# HELP``/``# TYPE`` comments, ``name{labels} value``
  samples, metric/label name charsets, label-value escaping
  (``\\\\``, ``\\"``, ``\\n`` only), float-parseable values;
* family structure: at most one ``HELP`` and one ``TYPE`` per family,
  ``HELP`` before ``TYPE``, both before any sample of the family, and
  all of a family's samples contiguous (no interleaving);
* histogram invariants per label-group: a ``+Inf`` bucket present,
  bucket counts cumulative (non-decreasing in ``le`` order), ``_sum``
  and ``_count`` present, and ``_count`` equal to the ``+Inf`` bucket;
* no duplicate series (same name + same label set).

Line grammar comes from the one parser, :func:`repro.obs.promtext.parse`;
this module adds the family and histogram checks on top of it.
:func:`lint` returns a list of ``"line N: problem"`` strings (empty
means clean); :func:`check` raises :class:`PromLintError` on the first
batch of problems.  ``python -m repro.obs.promlint FILE...`` lints
files (``make obs-smoke`` runs it over a live ``/v1/metrics`` body).
"""

import sys
from typing import Dict, List, Optional, Tuple

from repro.obs.promtext import parse, parse_value

__all__ = ["PromLintError", "lint", "check", "main"]

_TYPES = ("counter", "gauge", "histogram", "summary", "untyped")


class PromLintError(ValueError):
    """The exposition text violates the format contract."""


class _Family:
    __slots__ = ("name", "kind", "help_line", "type_line", "samples",
                 "closed")

    def __init__(self, name: str):
        self.name = name
        self.kind: Optional[str] = None
        self.help_line: Optional[int] = None
        self.type_line: Optional[int] = None
        # (suffix, labels, value, lineno) per sample.
        self.samples: List[Tuple[str, Dict[str, str], float, int]] = []
        self.closed = False


def _family_of(sample_name: str,
               families: Dict[str, _Family]) -> Tuple[str, str]:
    """Resolve a sample name to (family, suffix) using declared types."""
    for suffix in ("_bucket", "_sum", "_count"):
        if sample_name.endswith(suffix):
            base = sample_name[: -len(suffix)]
            fam = families.get(base)
            if fam is not None and fam.kind in ("histogram", "summary"):
                return base, suffix
    return sample_name, ""


def lint(text: str) -> List[str]:
    """All format problems in *text*, as ``"line N: ..."`` strings."""
    problems: List[str] = []
    families: Dict[str, _Family] = {}
    order: List[str] = []
    current: Optional[str] = None
    seen_series = set()

    def family(name: str) -> _Family:
        fam = families.get(name)
        if fam is None:
            fam = families[name] = _Family(name)
            order.append(name)
        return fam

    def switch_to(name: str, lineno: int) -> _Family:
        nonlocal current
        fam = family(name)
        if current is not None and current != name:
            families[current].closed = True
        if fam.closed:
            problems.append(
                "line {}: family {!r} reappears after other families "
                "(samples must be contiguous)".format(lineno, name))
            fam.closed = False
        current = name
        return fam

    for line in parse(text):
        lineno, name = line.lineno, line.name
        if line.problem is not None:
            problems.append("line {}: {}".format(lineno, line.problem))
            continue
        if line.kind == "HELP":
            fam = switch_to(name, lineno)
            if fam.help_line is not None:
                problems.append(
                    "line {}: second HELP for {!r}".format(lineno, name))
            if fam.type_line is not None or fam.samples:
                problems.append(
                    "line {}: HELP for {!r} must precede its TYPE "
                    "and samples".format(lineno, name))
            fam.help_line = lineno
            continue
        if line.kind == "TYPE":
            fam = switch_to(name, lineno)
            kind = line.value
            if kind not in _TYPES:
                problems.append(
                    "line {}: bad TYPE {!r} for {!r}".format(
                        lineno, kind, name))
            if fam.type_line is not None:
                problems.append(
                    "line {}: second TYPE for {!r}".format(lineno, name))
            if fam.samples:
                problems.append(
                    "line {}: TYPE for {!r} after its samples".format(
                        lineno, name))
            fam.type_line = lineno
            fam.kind = kind or None
            continue
        labels, value = line.labels, line.value
        base, suffix = _family_of(name, families)
        fam = switch_to(base, lineno)
        series_key = (name, tuple(sorted(labels.items())))
        if series_key in seen_series:
            problems.append(
                "line {}: duplicate series {}{}".format(
                    lineno, name,
                    "{" + ",".join("{}={}".format(k, v)
                                   for k, v in sorted(labels.items())) + "}"
                    if labels else ""))
        seen_series.add(series_key)
        if suffix == "_bucket" and "le" not in labels:
            problems.append(
                "line {}: histogram bucket without 'le' label".format(lineno))
        fam.samples.append((suffix, labels, value, lineno))

    for name in order:
        fam = families[name]
        if fam.kind == "histogram":
            problems.extend(_check_histogram(fam))
        elif fam.kind in ("counter", "gauge"):
            for suffix, labels, value, lineno in fam.samples:
                if fam.kind == "counter" and value < 0:
                    problems.append(
                        "line {}: counter {!r} is negative".format(
                            lineno, name))
    return problems


def _check_histogram(fam: _Family) -> List[str]:
    """Per label-group bucket/sum/count invariants for one histogram."""
    problems: List[str] = []
    groups: Dict[tuple, dict] = {}
    for suffix, labels, value, lineno in fam.samples:
        key = tuple(sorted((k, v) for k, v in labels.items() if k != "le"))
        group = groups.setdefault(
            key, {"buckets": [], "sum": None, "count": None, "line": lineno})
        if suffix == "_bucket":
            group["buckets"].append((labels.get("le", ""), value, lineno))
        elif suffix == "_sum":
            group["sum"] = value
        elif suffix == "_count":
            group["count"] = value
        else:
            problems.append(
                "line {}: bare sample {!r} for histogram family".format(
                    lineno, fam.name))
    for key, group in groups.items():
        label_text = "{" + ",".join(
            "{}={}".format(k, v) for k, v in key) + "}" if key else ""
        where = "histogram {}{}".format(fam.name, label_text)
        inf = None
        previous = None
        for le, value, lineno in group["buckets"]:
            bound = parse_value(le)
            if bound is None:
                problems.append(
                    "line {}: {} has unparseable le={!r}".format(
                        lineno, where, le))
                continue
            if previous is not None and value < previous:
                problems.append(
                    "line {}: {} buckets not cumulative "
                    "(le={} count {} < previous {})".format(
                        lineno, where, le, value, previous))
            previous = value
            if bound == float("inf"):
                inf = value
        if inf is None:
            problems.append(
                "line {}: {} missing le=\"+Inf\" bucket".format(
                    group["line"], where))
        if group["sum"] is None:
            problems.append(
                "line {}: {} missing _sum".format(group["line"], where))
        if group["count"] is None:
            problems.append(
                "line {}: {} missing _count".format(group["line"], where))
        elif inf is not None and group["count"] != inf:
            problems.append(
                "line {}: {} _count {} != +Inf bucket {}".format(
                    group["line"], where, group["count"], inf))
    return problems


def check(text: str, source: str = "<metrics>") -> None:
    """Raise :class:`PromLintError` listing every problem in *text*."""
    problems = lint(text)
    if problems:
        raise PromLintError("{}: {} problem(s)\n  {}".format(
            source, len(problems), "\n  ".join(problems)))


def main(argv: Optional[List[str]] = None) -> int:
    """Lint exposition files; exit 1 if any has problems."""
    paths = list(argv if argv is not None else sys.argv[1:])
    if not paths:
        print("usage: python -m repro.obs.promlint FILE...", file=sys.stderr)
        return 2
    status = 0
    for path in paths:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as err:
            print("{}: unreadable: {}".format(path, err), file=sys.stderr)
            status = 1
            continue
        problems = lint(text)
        if problems:
            status = 1
            print("{}: INVALID ({} problems)".format(path, len(problems)))
            for problem in problems:
                print("  " + problem)
        else:
            families = sum(1 for line in text.splitlines()
                           if line.startswith("# TYPE "))
            print("{}: ok ({} families)".format(path, families))
    return status


if __name__ == "__main__":
    raise SystemExit(main())
