"""Benchmark run ledger: ``BENCH_history.jsonl`` records and selection.

The ledger is the one on-disk record of run numbers.  Every ``repro
bench``, ``bench serve``, ``bench gate`` and ``corpus run`` *appends*
one schema-versioned JSON record per line to ``BENCH_history.jsonl``
(nothing is overwritten in place, so every run stays comparable with
every earlier one), and the record carries everything a later
comparison needs:

* ``git_sha`` and a UTC timestamp, so records map onto commits;
* a host fingerprint (CPU count, python version, platform), so
  cross-host comparisons can be recognised and discounted;
* per-benchmark per-phase wall seconds lifted from the obs span tree
  (:func:`phase_seconds` buckets every recorded span under the nearest
  ancestor's ``program`` attribute);
* the counter/gauge registry snapshot flattened to ``name{labels}``
  keys, so behavioural drift (query counts, cache hits, limit-study
  category tallies) is tracked next to wall time.

Records are ``bench_run`` records of :mod:`repro.obs.jsonl`, which owns
their schema, the torn-append seam and the reader (``python -m
repro.obs.jsonl FILE...`` validates a ledger); any layout change must
bump :data:`HISTORY_SCHEMA_VERSION`.  :mod:`repro.obs.regress` consumes
these records for ``repro bench compare`` / ``repro bench gate``.
"""

import os
import platform
import subprocess
import sys
import time
from typing import Dict, List, Optional

from repro.obs import core, jsonl, metrics

#: The ledger's record kind and its schema version.
RECORD_KIND = jsonl.BENCH_RUN
HISTORY_SCHEMA_VERSION = jsonl.KINDS[RECORD_KIND].version

#: Where the CLI appends records by default (repository root relative).
DEFAULT_HISTORY_PATH = "BENCH_history.jsonl"

#: Bucket for spans that have no ``program`` attribute anywhere on their
#: ancestor chain (suite-wide work such as the Table 5 engine sweep).
SUITE_BUCKET = "(suite)"


# ----------------------------------------------------------------------
# Record collection


def host_fingerprint() -> Dict[str, object]:
    """CPU count, python version and platform of the measuring host."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": sys.platform,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
    }


def git_sha(cwd: Optional[str] = None) -> Optional[str]:
    """The HEAD commit sha, or ``None`` outside a git checkout."""
    return resolve_ref("HEAD", cwd)


def resolve_ref(ref: str, cwd: Optional[str] = None) -> Optional[str]:
    """Resolve a git ref (``HEAD~1``, a branch, a short sha) to a sha."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--verify", ref],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            cwd=cwd, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if proc.returncode != 0:
        return None
    sha = proc.stdout.decode("ascii", "replace").strip()
    return sha or None


def utc_timestamp() -> str:
    """Current UTC time as ``YYYY-MM-DDTHH:MM:SSZ``."""
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def phase_seconds(recorder: Optional[core.Recorder] = None
                  ) -> Dict[str, Dict[str, float]]:
    """``benchmark -> span name -> summed wall seconds`` from the span tree.

    A span's benchmark is its own ``program`` attribute if set, else the
    nearest ancestor's; spans with no attributed ancestor land under
    :data:`SUITE_BUCKET`.  Repeated spans of the same (benchmark, name)
    sum, so e.g. the base and optimized ``bench.run`` of one benchmark
    form a single series.
    """
    recorder = recorder or core.recorder()
    spans = recorder.spans()
    by_id = {s.span_id: s for s in spans}
    attributed: Dict[int, str] = {}

    def bucket_of(span: core.Span) -> str:
        cached = attributed.get(span.span_id)
        if cached is not None:
            return cached
        program = span.attrs.get("program")
        if program is not None:
            bucket = str(program)
        elif span.parent_id in by_id:
            bucket = bucket_of(by_id[span.parent_id])
        else:
            bucket = SUITE_BUCKET
        attributed[span.span_id] = bucket
        return bucket

    sums: Dict[str, Dict[str, float]] = {}
    for span in spans:
        phases = sums.setdefault(bucket_of(span), {})
        phases[span.name] = phases.get(span.name, 0.0) + span.duration
    return {
        bucket: {name: round(seconds, 6) for name, seconds in phases.items()}
        for bucket, phases in sums.items()
    }


def counter_values(registry: Optional[metrics.MetricsRegistry] = None
                   ) -> Dict[str, float]:
    """Registry counters/gauges flattened to ``name{k=v,...} -> value``.

    Histograms contribute their event count under a ``:count`` suffix.
    """
    registry = registry if registry is not None else metrics.registry()
    out: Dict[str, float] = {}
    for entry in registry.snapshot():
        labels = ",".join(
            "{}={}".format(k, v) for k, v in sorted(entry["labels"].items()))
        key = entry["name"] + ("{" + labels + "}" if labels else "")
        if entry["kind"] == "histogram":
            out[key + ":count"] = entry["count"]
        else:
            out[key] = entry["value"]
    return out


def _merge_phases(base: Dict[str, Dict[str, float]],
                  extra: Dict[str, Dict[str, float]]) -> None:
    for bucket, phases in extra.items():
        target = base.setdefault(bucket, {})
        for name, seconds in phases.items():
            target[name] = round(target.get(name, 0.0) + seconds, 6)


def collect_record(label: str,
                   recorder: Optional[core.Recorder] = None,
                   registry: Optional[metrics.MetricsRegistry] = None,
                   sha: Optional[str] = None,
                   timestamp: Optional[str] = None,
                   extra_phases: Optional[Dict[str, Dict[str, float]]] = None,
                   ) -> dict:
    """One ledger record from the current recorder/registry state.

    ``label`` names the producing workflow (``bench``, ``gate``,
    ``corpus``); ``extra_phases`` merges additional series (the serve
    bench's warm/cold/transport seconds) into the span-derived phases.
    """
    phases = phase_seconds(recorder)
    if extra_phases:
        _merge_phases(phases, extra_phases)
    return {
        "schema": HISTORY_SCHEMA_VERSION,
        "kind": RECORD_KIND,
        "tool": "repro",
        "label": label,
        "git_sha": sha if sha is not None else git_sha(),
        "timestamp_utc": timestamp or utc_timestamp(),
        "host": host_fingerprint(),
        "phases": phases,
        "counters": counter_values(registry),
    }


# ----------------------------------------------------------------------
# File I/O


def read_history(path: str) -> List[dict]:
    """Every validated record in *path*, in file (i.e. append) order.

    A **torn line** — one that fails to decode as JSON, the artifact of
    a writer dying mid-append — is skipped with a warning (and counted
    in ``obs.history.torn_skipped``) so a crashed bench run can never
    wedge ``bench compare``/``gate``.  A line that decodes but fails the
    ``bench_run`` schema is *corruption*, not tearing, and raises.
    A file with no valid record at all raises too.
    """
    result = jsonl.read(path, RECORD_KIND)
    if result.invalid:
        lineno, _obj, problem = result.invalid[0]
        raise ValueError("{}:{}: {}".format(path, lineno, problem))
    if not result.records:
        raise ValueError("{}: empty history".format(path))
    return result.records


# ----------------------------------------------------------------------
# Record selection (for compare/gate)


def select_records(records: List[dict], selector: str) -> List[dict]:
    """The records *selector* names, from already-loaded history.

    * ``latest`` — the trailing run of consecutive records sharing the
      newest record's ``git_sha`` (i.e. "everything from the last
      measured commit", which is what repeats produce);
    * anything else — records whose ``git_sha`` starts with *selector*.
    """
    if not records:
        raise ValueError("history holds no records")
    if selector in ("latest", "last"):
        tail_sha = records[-1]["git_sha"]
        chosen: List[dict] = []
        for record in reversed(records):
            if record["git_sha"] != tail_sha:
                break
            chosen.append(record)
        return list(reversed(chosen))
    chosen = [r for r in records
              if r["git_sha"] is not None and r["git_sha"].startswith(selector)]
    if not chosen:
        raise ValueError(
            "no history records match {!r} (known shas: {})".format(
                selector,
                ", ".join(sorted({str(r["git_sha"])[:12]
                                  for r in records})) or "none"))
    return chosen


def resolve_selection(selector: str, history_path: str) -> List[dict]:
    """Turn a CLI selector into a list of ledger records.

    *selector* is, in order of precedence: a path to a JSONL ledger file
    (all its records), ``latest``, a git-sha prefix found in the history
    file, or a git ref resolved via ``git rev-parse``.
    """
    if os.path.isfile(selector):
        return read_history(selector)
    records = read_history(history_path)
    try:
        return select_records(records, selector)
    except ValueError:
        sha = resolve_ref(selector)
        if sha is None:
            raise
        return select_records(records, sha)
