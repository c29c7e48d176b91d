"""Run one workload in this (fresh) process and report it.

    python3 benchmarks/e2e/workload.py NAME --seed S --seconds N \\
        --trace 0|1 --out DIR [--smoke]

``run.py`` starts one of these per workload.  It prints one line per
metric, name and unit included, then the result object as the last
line, and writes the full record (and, traced, the spans) to ``--out``.
Scratch files live in a work directory under ``--out`` that is removed
before the process exits.
"""

import argparse
import importlib
import json
import os
import shutil
import sys
import time
from pathlib import Path

import common

#: Workload -> (module, function).  Modules import ``repro``, so they
#: load only once a workload is chosen.
WORKLOADS = {
    "tables_suite": ("tables_suite", "run"),
    "corpus_run": ("corpus_run", "run"),
    "serve_read": ("serve_load", "run_read"),
    "serve_edit": ("serve_load", "run_edit"),
}


def metric_sets(run: common.Run):
    """``(end-to-end, per-layer)`` as ``{name: {"value", "unit"}}``.

    Units come from ``BENCHMARK.json``; a per-layer metric the workload
    does not exercise reads 0.
    """
    spec = common.load_spec()
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    missing = set(e2e) - set(run.end_to_end)
    unknown = (set(run.end_to_end) - set(e2e)) | (set(run.per_layer) - set(layers))
    if missing or unknown:
        raise RuntimeError("metrics missing {} or unknown {}".format(
            sorted(missing), sorted(unknown)))
    return (
        {n: {"value": run.end_to_end[n], "unit": u} for n, u in e2e.items()},
        {n: {"value": run.per_layer.get(n, 0.0), "unit": u}
         for n, u in layers.items()},
    )


def report_lines(name: str, run: common.Run, metrics: dict):
    """One human-readable line per metric and per piece of info."""
    for metric, entry in metrics.items():
        line = "[{}] {} = {:.6g} {}".format(name, metric, entry["value"],
                                           entry["unit"])
        if metric.startswith("op_ms."):
            line += " (n={})".format(run.info["ops"])
        yield line
    yield "[{}] error_rate = {:.6g} failed/attempted ({} of {})".format(
        name, run.failed / max(run.attempted, 1), run.failed, run.attempted)
    for key, value in sorted(run.info.items()):
        yield "[{}] {} = {}".format(name, key, value)
    for problem in run.problems:
        yield "[{}] WRONG: {}".format(name, problem)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--smoke", action="store_true")
    opts = parser.parse_args(argv)
    opts.out.mkdir(parents=True, exist_ok=True)
    opts.work = opts.out / "work-{}-{}".format(opts.workload, os.getpid())
    module, function = WORKLOADS[opts.workload]
    try:
        run = getattr(importlib.import_module(module), function)(opts)
    finally:
        shutil.rmtree(opts.work, ignore_errors=True)
    e2e, layers = metric_sets(run)
    # Traced, the end-to-end numbers still come from an untraced
    # segment of the same run; they are printed but not the result.
    shown = dict(e2e, **layers) if opts.trace else e2e
    result = {
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": layers if opts.trace else e2e,
    }
    stem = "{}-seed{}-trace{}-{}".format(opts.workload, opts.seed, opts.trace,
                                         time.time_ns())
    record = dict(result, workload=opts.workload, seed=opts.seed,
                  seconds=opts.seconds, trace=opts.trace, smoke=opts.smoke,
                  end_to_end=e2e, per_layer=layers, info=run.info,
                  problems=run.problems)
    with open(opts.out / (stem + ".json"), "w") as f:
        json.dump(record, f, indent=2, sort_keys=True)
    if run.spans:
        with open(opts.out / (stem + ".spans.jsonl"), "w") as f:
            for span in run.spans:
                f.write(json.dumps(span, sort_keys=True) + "\n")
    for line in report_lines(opts.workload, run, shown):
        print(line)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
