"""End-to-end benchmark of the TBAA reproduction.

    python3 benchmarks/e2e/run.py [--workload NAME]... [--seed S]
        [--seconds N] [--trace 0|1] [--out DIR] [--smoke]
    python3 benchmarks/e2e/run.py --compare DIR_A DIR_B

Runs each workload (default: all of ``BENCHMARK.json``'s) in a fresh
Python process, relays its per-metric lines, and prints one result
object as the last line: with one workload, that workload's; with
several, their totals and every metric prefixed by its workload.  Exits
1 when any output was wrong, 2 when a workload produced no result.

``--compare`` reads the result files two sets of runs wrote to their
``--out`` directories and gives, per workload and gated metric, the
median, the quartiles, and a verdict under :data:`COMPARE_BOUNDS`.
See README.md.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Tuple

import common


def child_timeout(seconds: float) -> float:
    """Budget for one workload process: set-up, a segment (two when
    traced), checking; generous, since it only catches hangs."""
    return 120.0 + 3.0 * seconds


def run_workload(name: str, args, seconds: float) -> dict:
    cmd = [sys.executable, str(common.E2E_DIR / "workload.py"), name,
           "--seed", str(args.seed), "--seconds", str(seconds),
           "--trace", str(args.trace), "--out", str(args.out)]
    if args.smoke:
        cmd.append("--smoke")
    # Its own process group, so a hung workload and the daemon it started
    # are killed together.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=common.child_env(), start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=child_timeout(seconds))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError("{} did not finish in {:.0f}s".format(
            name, child_timeout(seconds)))
    lines = out.splitlines()
    for line in lines[:-1]:
        print(line, flush=True)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise RuntimeError("{} exited {} without a result".format(
            name, proc.returncode))
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise RuntimeError("{} printed a malformed result".format(name))
    return result


def combine(results: Dict[str, dict]) -> dict:
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {"{}.{}".format(w, m): v for w, r in results.items()
                    for m, v in r["metrics"].items()},
    }


# ----------------------------------------------------------------------
# --compare

#: The bound ``--compare`` applies per workload and metric, or the
#: metric's ``BENCHMARK.json`` bound where that is tighter.
#: ``BENCHMARK.json`` has one bound per metric for every workload, so it
#: must cover the noisiest workload; these are the bounds each workload
#: was specified with, so a change to a steady workload shows even when
#: the noisiest one could not show it.  serve_edit's reads are gated
#: through their per-layer tail, since its ``op_ms`` is the edits.
COMPARE_BOUNDS = {
    "tables_suite": {"setup_s": 0.10, "ops_per_s": 0.05, "op_ms.p50": 0.05,
                     "op_ms.p90": 0.05, "peak_rss_mb": 0.10},
    "corpus_run": {"setup_s": 0.10, "ops_per_s": 0.05, "op_ms.p50": 0.05,
                   "op_ms.p90": 0.05, "peak_rss_mb": 0.10},
    "serve_read": {"setup_s": 0.10, "ops_per_s": 0.10, "op_ms.p50": 0.10,
                   "op_ms.p90": 0.10, "peak_rss_mb": 0.10},
    "serve_edit": {"setup_s": 0.10, "ops_per_s": 0.10, "op_ms.p50": 0.10,
                   "op_ms.p90": 0.10, "peak_rss_mb": 0.10,
                   "serve.read_ms.p50": 0.10, "serve.read_ms.p90": 0.10},
}


def gated(spec: dict, workload: str) -> List[Tuple[str, str, bool, float]]:
    """``(record section, metric, higher is better, bound)`` for each
    metric ``--compare`` judges on *workload*."""
    metrics = {m["name"]: ("end_to_end", m) for m in spec["end_to_end"]}
    metrics.update((m["name"], ("per_layer", m)) for m in spec["per_layer"])
    out = []
    for name, bound in COMPARE_BOUNDS[workload].items():
        section, metric = metrics[name]
        out.append((section, name, metric["better"] == "higher",
                    min(bound, metric.get("bound", bound))))
    return out


def load_runs(directory: Path) -> Dict[str, List[dict]]:
    """Untraced result records in *directory*, by workload."""
    runs: Dict[str, List[dict]] = {}
    for path in sorted(Path(directory).glob("*.json")):
        with open(path) as f:
            record = json.load(f)
        if record.get("trace") == 0:
            runs.setdefault(record["workload"], []).append(record)
    return runs


def summary(values: List[float]):
    """(median, first quartile, third quartile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def verdict(a: List[float], b: List[float], higher_better: bool,
            bound: float) -> str:
    """better, same, worse or unresolved, for set *b* against set *a*.

    A median that moved by more than the bound, either way, is better or
    worse.  When either set's quartile spread is wider than the bound the
    medians cannot show that, so the verdict is unresolved unless every
    run of one set beats every run of the other.
    """
    def beats(x: float, y: float) -> bool:
        return x > y if higher_better else x < y

    (ma, a1, a3), (mb, b1, b3) = summary(a), summary(b)
    if max((a3 - a1) / ma, (b3 - b1) / mb) > bound:
        if all(beats(x, y) for x in b for y in a):
            return "better"
        if all(beats(y, x) for x in b for y in a):
            return "worse"
        return "unresolved"
    change = (mb - ma) / ma * (1.0 if higher_better else -1.0)
    if change > bound:
        return "better"
    if change < -bound:
        return "worse"
    return "same"


def compare(dir_a: Path, dir_b: Path) -> int:
    spec = common.load_spec()
    runs_a, runs_b = load_runs(dir_a), load_runs(dir_b)
    print("{:<14} {:<17} {:>36} {:>36} {:>8} {:>6}  {}".format(
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]",
        "change", "bound", "verdict"))
    worse = False
    for workload in (w["name"] for w in spec["workloads"]):
        a, b = runs_a.get(workload, []), runs_b.get(workload, [])
        if not a or not b:
            print("{:<14} (runs: A {}, B {})".format(workload, len(a), len(b)))
            continue
        for section, name, higher_better, bound in gated(spec, workload):
            va = [r[section][name]["value"] for r in a]
            vb = [r[section][name]["value"] for r in b]
            result = verdict(va, vb, higher_better, bound)
            worse = worse or result == "worse"
            (ma, a1, a3), (mb, b1, b3) = summary(va), summary(vb)
            print("{:<14} {:<17} {:>36} {:>36} {:>+7.1f}% {:>5.0f}%  {}".format(
                workload, name,
                "{:.4g} [{:.4g}, {:.4g}] n={}".format(ma, a1, a3, len(va)),
                "{:.4g} [{:.4g}, {:.4g}] n={}".format(mb, b1, b3, len(vb)),
                100.0 * (mb - ma) / ma, 100.0 * bound, result))
        wrong = sum(not r["correct"] for r in a + b)
        if wrong:
            print("{:<14} {} run(s) with wrong outputs".format(workload, wrong))
            worse = True
    return 1 if worse else 0


# ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark; see benchmarks/e2e/README.md.")
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="segment length (default BENCHMARK.json's "
                        "run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--out", type=Path, default=common.DEFAULT_OUT)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for tests")
    parser.add_argument("--compare", nargs=2, type=Path,
                        metavar=("DIR_A", "DIR_B"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not (common.SRC / "repro").is_dir():
        print("run.py: no sources at {}; run it from a checkout of the "
              "repository".format(common.SRC / "repro"), file=sys.stderr)
        return 2
    spec = common.load_spec()
    known = [w["name"] for w in spec["workloads"]]
    workloads = args.workload or known
    unknown = sorted(set(workloads) - set(known))
    if unknown:
        parser.error("unknown workload(s) {}; known: {}".format(unknown, known))
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    results = {}
    try:
        for name in workloads:
            results[name] = run_workload(name, args, seconds)
    except RuntimeError as err:
        print("run.py: {}".format(err), file=sys.stderr)
        return 2
    final = results[workloads[0]] if len(results) == 1 else combine(results)
    print(json.dumps(final, sort_keys=True))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
