"""The one JSONL record layer: schemas, line encoding, torn appends, reading.

Three files the system writes hold one JSON object per line, and all
three go through this module:

* ``trace_record`` — a span tree flushed by the trace store
  (:mod:`repro.obs.tracestore`) or by ``--trace FILE`` (one record
  that also carries the registry snapshot under ``metrics``);
* ``bench_run`` — one benchmark-ledger record
  (:mod:`repro.obs.history`, ``BENCH_history.jsonl``);
* ``access_log`` — one slow-request line (:mod:`repro.obs.reqlog`).

Every record carries ``kind`` and ``schema``; :data:`KINDS` pins each
kind's version, keys, value checks and counter prefix.  :func:`append`
is the one writer and holds the one torn-append chaos seam
(``jsonl.append``, context ``kind``); it raises on an invalid record or
an I/O error, and callers that must never raise catch and count.
:func:`read` is the one decoder: a line that is not JSON is **torn** (a
writer died mid-append) and is skipped and counted; a record that fails
its schema is **invalid** and is handed back, so each caller keeps its
own policy (the trace store skips it, the ledger raises).
``python -m repro.obs.jsonl FILE...`` fails a file with an invalid line
or no valid record, and reports the torn lines it skipped.
"""

import json
import sys
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.obs import log, metrics

__all__ = ["TRACE_RECORD", "BENCH_RUN", "ACCESS_LOG", "HOST_KEYS", "KINDS",
           "Kind", "ReadResult", "validate", "encode", "append", "read",
           "validate_file", "main"]

TRACE_RECORD = "trace_record"
BENCH_RUN = "bench_run"
ACCESS_LOG = "access_log"

#: Keys every bench-run host fingerprint must carry.
HOST_KEYS = ("python", "platform", "machine", "cpu_count")


def _require(condition: bool, message: str, *args: object) -> None:
    if not condition:
        raise ValueError(message.format(*args))


def _number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _text(value: object) -> bool:
    return isinstance(value, str) and bool(value)


def _check_trace_record(obj: dict) -> None:
    for key in ("trace", "proc", "origin", "op"):
        _require(_text(obj[key]),
                 "trace record {!r} must be a non-empty string", key)
    for key in ("ms", "ts"):
        _require(_number(obj[key]), "trace record {!r} must be a number", key)
    _require(isinstance(obj["ok"], bool),
             "trace record 'ok' must be a boolean")
    parent = obj["parent"]
    _require(parent is None or (
        isinstance(parent, dict) and isinstance(parent.get("proc"), str)
        and (parent.get("span") is None or _int(parent.get("span")))),
        "trace record 'parent' must be null or {{proc, span}}: {!r}", parent)
    _require(isinstance(obj["spans"], list),
             "trace record 'spans' must be a list")
    for span in obj["spans"]:
        _require(isinstance(span, dict) and _text(span.get("name")),
                 "trace span name must be a non-empty string: {!r}", span)
        _require(_int(span.get("id")),
                 "trace span id must be an int: {!r}", span.get("id"))
        _require(span.get("parent") is None or _int(span["parent"]),
                 "trace span parent must be an int or null: {!r}",
                 span.get("parent"))
        ms = span.get("duration_ms")
        _require(_number(ms) and ms >= 0,
                 "trace span duration_ms must be a number >= 0: {!r}", ms)
        _require(isinstance(span.get("attrs", {}), dict),
                 "trace span attrs must be an object")
    entries = obj.get("metrics", [])
    _require(isinstance(entries, list),
             "trace record 'metrics' must be a list")
    for entry in entries:
        _require(isinstance(entry, dict) and _text(entry.get("name"))
                 and isinstance(entry.get("labels"), dict)
                 and entry.get("kind") in ("counter", "gauge", "histogram"),
                 "trace metric needs kind, name and labels: {!r}", entry)
        if entry["kind"] == "histogram":
            buckets, counts = entry.get("buckets"), entry.get("bucket_counts")
            _require(isinstance(buckets, list) and isinstance(counts, list)
                     and len(counts) == len(buckets) + 1,
                     "histogram bucket_counts must have one more entry "
                     "than buckets (+Inf)")
        else:
            _require(_number(entry.get("value")),
                     "{} value must be numeric", entry["kind"])


def _check_bench_run(obj: dict) -> None:
    _require(_text(obj["label"]), "label must be a non-empty string")
    _require(obj["git_sha"] is None or _text(obj["git_sha"]),
             "git_sha must be a non-empty string or null")
    _require(isinstance(obj["timestamp_utc"], str)
             and "T" in obj["timestamp_utc"],
             "timestamp_utc must be an ISO 8601 string")
    host = obj["host"]
    _require(isinstance(host, dict), "host must be an object")
    for key in HOST_KEYS:
        _require(key in host, "host fingerprint missing key {!r}", key)
    _require(_int(host["cpu_count"]) and host["cpu_count"] >= 1,
             "host cpu_count must be a positive integer")
    _require(isinstance(obj["phases"], dict), "phases must be an object")
    for bucket, series in obj["phases"].items():
        _require(isinstance(series, dict),
                 "phases[{!r}] must be an object", bucket)
        for name, seconds in series.items():
            _require(_number(seconds) and seconds >= 0,
                     "phase {}/{} must be a non-negative number, got {!r}",
                     bucket, name, seconds)
    _require(isinstance(obj["counters"], dict), "counters must be an object")
    for name, value in obj["counters"].items():
        _require(_number(value),
                 "counter {!r} must be numeric, got {!r}", name, value)


def _check_access_log(obj: dict) -> None:
    _require(_text(obj["trace"]), "'trace' must be a non-empty string")
    _require(isinstance(obj["op"], str), "'op' must be a string")
    _require(_number(obj["ms"]), "'ms' must be a number")
    _require(isinstance(obj["ok"], bool), "'ok' must be a boolean")
    _require(obj["slow"] is True, "'slow' must be true in the access log")


class Kind(NamedTuple):
    """One record kind: its schema version, the keys every record carries
    beyond ``kind``/``schema``, its value checks, and the counter prefix
    of its ``.torn_writes``/``.torn_skipped`` counts."""

    version: int
    keys: Tuple[str, ...]
    check: Callable[[dict], None]
    counter: str


KINDS: Dict[str, Kind] = {
    TRACE_RECORD: Kind(1, ("trace", "proc", "origin", "op", "ms", "ok",
                           "ts", "parent", "spans"),
                       _check_trace_record, "obs.trace"),
    BENCH_RUN: Kind(1, ("tool", "label", "git_sha", "timestamp_utc",
                        "host", "phases", "counters"),
                    _check_bench_run, "obs.history"),
    ACCESS_LOG: Kind(1, ("ts", "trace", "op", "unit", "ms", "ok", "error",
                         "cache", "slow"),
                     _check_access_log, "serve.accesslog"),
}


def validate(obj: object, kind: Optional[str] = None) -> None:
    """Raise ``ValueError`` unless *obj* is a well-formed record of
    *kind* (default: whichever known kind the record names)."""
    _require(isinstance(obj, dict), "record is not an object: {!r}", obj)
    kind = kind or obj.get("kind")
    spec = KINDS.get(kind)
    _require(spec is not None and obj.get("kind") == kind,
             "unknown record kind: {!r}", obj.get("kind"))
    _require(obj.get("schema") == spec.version,
             "unknown schema version {!r} for {}", obj.get("schema"), kind)
    for key in spec.keys:
        _require(key in obj, "{} record missing key {!r}", kind, key)
    spec.check(obj)


def encode(record: dict) -> str:
    """One validated record as its JSONL line (no newline)."""
    validate(record)
    return json.dumps(record, sort_keys=True)


def append(path, record: dict) -> None:
    """Validate *record* and append it to *path* as one line.

    Raises ``ValueError`` (invalid record) or ``OSError``; each caller
    picks its own policy.  The ``jsonl.append`` chaos point simulates
    the writer dying mid-append: the line lands truncated, counted in
    ``{counter}.torn_writes``, and :func:`read` must skip it.
    """
    from repro.qa import chaos  # lazy: qa pulls in heavier modules

    line = encode(record)
    kind = record["kind"]
    if chaos.fire("jsonl.append", kind=kind):
        line = line[: max(1, len(line) // 3)]
        metrics.registry().counter(KINDS[kind].counter + ".torn_writes").inc()
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(line + "\n")


class ReadResult(NamedTuple):
    """What one file held: valid records, invalid ones, torn lines."""

    records: List[dict]
    #: ``(line number, decoded object, problem)`` per invalid record.
    invalid: List[Tuple[int, object, str]]
    torn: int


def read(path, kind: Optional[str] = None) -> ReadResult:
    """Decode every line of *path*, in file (append) order.

    Torn lines are skipped with a warning and, when *kind* is given,
    counted in ``{counter}.torn_skipped``; invalid records are returned,
    not raised.  Raises ``OSError`` when the file cannot be read.
    """
    records: List[dict] = []
    invalid: List[Tuple[int, object, str]] = []
    torn = 0
    with open(path, encoding="utf-8", errors="replace") as handle:
        for lineno, raw in enumerate(handle, 1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                obj = json.loads(raw)
            except json.JSONDecodeError:
                torn += 1
                log.warn("{}:{}: skipping torn {} line".format(
                    path, lineno, kind or "JSONL"))
                continue
            try:
                validate(obj, kind)
            except ValueError as err:
                invalid.append((lineno, obj, str(err)))
                continue
            records.append(obj)
    if torn and kind is not None:
        metrics.registry().counter(
            KINDS[kind].counter + ".torn_skipped").inc(torn)
    return ReadResult(records, invalid, torn)


def _checked(path) -> ReadResult:
    result = read(path)
    if result.invalid:
        lineno, _obj, problem = result.invalid[0]
        raise ValueError("{}:{}: {}".format(path, lineno, problem))
    if not result.records:
        raise ValueError("{}: no valid record".format(path))
    return result


def validate_file(path) -> int:
    """The number of valid records in *path*; ``ValueError`` when a line
    is invalid or no record is valid (torn lines are allowed)."""
    return len(_checked(path).records)


def main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.obs.jsonl FILE...`` — validate JSONL files."""
    import argparse

    parser = argparse.ArgumentParser(
        description="validate repro JSONL files (trace records, bench "
        "ledgers, access logs) against their pinned schemas")
    parser.add_argument("files", nargs="+")
    args = parser.parse_args(argv)
    status = 0
    for path in args.files:
        try:
            result = _checked(path)
        except (OSError, ValueError) as err:
            print("{}: INVALID: {}".format(path, err), file=sys.stderr)
            status = 1
            continue
        kinds = sorted({r["kind"] for r in result.records})
        print("{}: ok ({} records: {}; {} torn lines skipped)".format(
            path, len(result.records), ", ".join(kinds), result.torn))
    return status


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
