"""Shared pieces of the end-to-end benchmark.

Paths, the metric spec read from ``BENCHMARK.json``, per-layer sums over
span records, percentiles, and :class:`Run`, the record every workload
fills in.  Nothing here imports ``repro``: ``run.py`` loads this
module before it knows whether the checkout has sources at all.
"""

import json
import os
import resource
import statistics
import time
from pathlib import Path
from typing import Dict, Iterable, List, Tuple

E2E_DIR = Path(__file__).resolve().parent
ROOT = E2E_DIR.parents[1]
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
GOLDEN_DIR = E2E_DIR / "golden"
DEFAULT_OUT = ROOT / "benchmarks" / "results" / "e2e"

#: Generated-program seeds start at ``--seed`` times this, so different
#: ``--seed`` values never share a program.
SEED_STRIDE = 100_000

#: Set-up is repeated this many times per run and its median reported,
#: so one slow start (page cache, a neighbour's burst) does not decide it.
SETUP_REPEATS = 3


def load_spec() -> dict:
    with open(SPEC_PATH) as f:
        return json.load(f)


def child_env() -> Dict[str, str]:
    """Environment for every process the benchmark starts: ``repro``
    importable from this checkout's ``src``."""
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env


def quantile(values: List[float], q: int) -> float:
    """The *q*-th percentile (inclusive method), or the only value."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    """This process's peak resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set size of another live process, from /proc."""
    with open("/proc/{}/status".format(pid)) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM for pid {}".format(pid))


def median_setup(setup, release):
    """Set up :data:`SETUP_REPEATS` times; return (median seconds, the
    last set-up's value).

    ``setup(i)`` does the work of attempt *i* and returns what the run
    needs; ``release(value)`` frees an earlier attempt, untimed.
    """
    times = []
    value = None
    for i in range(SETUP_REPEATS):
        if i:
            release(value)
        started = time.perf_counter()
        value = setup(i)
        times.append(time.perf_counter() - started)
    return statistics.median(times), value


# ----------------------------------------------------------------------
# Per-layer attribution
#
# Traced runs read the spans ``repro.obs`` records (in this process with
# ``obs.enable()``, or from the daemon's ``debug: true`` span trees) as
# ``Span.to_json`` records: name, id, parent, start_ms, duration_ms and,
# inside a trace scope, trace.


#: Per-layer metric -> the span names whose whole durations it sums.
#: Each workload reports the entries it exercises; within one workload's
#: entries no span nests inside another's.
SPAN_LAYERS = {
    "lang.parse.ms": ("lang.parse",),
    "lang.typecheck.ms": ("lang.typecheck",),
    "opt.base.ms": ("pipeline.base",),
    "opt.pipeline.ms": ("pipeline.build",),
    "runtime.interp.ms": ("bench.run",),
    "runtime.limit.ms": ("bench.limit_study",),
    "analysis.build.ms": ("analysis.facts", "analysis.build"),
    "analysis.count.ms": ("bulk.build", "bulk.count"),
}


def span_times(spans: List[dict]) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Milliseconds per span name: whole durations, and self times (minus
    the time direct child spans cover)."""
    names = {s["id"]: s["name"] for s in spans}
    totals: Dict[str, float] = {}
    own: Dict[str, float] = {}
    for s in spans:
        totals[s["name"]] = totals.get(s["name"], 0.0) + s["duration_ms"]
        own[s["name"]] = own.get(s["name"], 0.0) + s["duration_ms"]
        parent = names.get(s["parent"])
        if parent is not None:
            own[parent] -= s["duration_ms"]
    return totals, own


def layer_ms(spans: List[dict], metrics: Iterable[str]) -> Dict[str, float]:
    """Milliseconds per per-layer metric, from :data:`SPAN_LAYERS`."""
    totals, _ = span_times(spans)
    return {m: sum(totals.get(n, 0.0) for n in SPAN_LAYERS[m])
            for m in metrics}


# ----------------------------------------------------------------------
# Results


class Run:
    """What one workload measured, plus its output checks."""

    def __init__(self) -> None:
        self.end_to_end: Dict[str, float] = {}
        self.per_layer: Dict[str, float] = {}
        #: Printed and saved, never compared: sample counts, verify_s ...
        self.info: Dict[str, object] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        #: The traced segment's span records, written next to the result.
        self.spans: List[dict] = []

    def check(self, ok: bool, what: str) -> None:
        """Count one checked output; remember the first few failures."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)

    def latencies(self, durations: Iterable[float], wall: float) -> None:
        """``ops_per_s`` and ``op_ms.*`` from per-op seconds and the
        wall time of the segment they ran in."""
        ms = [d * 1000.0 for d in durations]
        self.end_to_end["ops_per_s"] = len(ms) / wall
        self.end_to_end["op_ms.p50"] = quantile(ms, 50)
        self.end_to_end["op_ms.p90"] = quantile(ms, 90)
        self.info["ops"] = len(ms)

    def per_op(self, values: Dict[str, float], ops: int) -> None:
        """Record per-layer totals divided by the segment's op count."""
        for name, value in values.items():
            self.per_layer[name] = value / ops
