"""Golden execution counters: the raw counts behind Figures 8-10.

The e2e goldens print rounded percentages; ``golden_exec_stats.json``
pins the exact counts they are computed from.  For every bundled program
under every configuration ``tests/integration/test_correctness.py`` runs
it holds each :class:`~repro.runtime.ExecutionStats` field plus a sha256
of the output, and for every dynamic program the limit study's totals
and per-category counts before and after RLE (Figures 9 and 10).

Everything is read through the session ``suite`` fixture, so no program
runs twice there; one more check executes the limit-study configs in a
fresh suite, traced before any untraced run, and matches both records
against the same goldens.  Regenerate the file after a deliberate change
to the runtime's cost model with::

    PYTHONPATH=src python -m tests.runtime.test_golden_exec_stats
"""

import hashlib
import json
import os

import pytest

from repro.bench import registry
from repro.bench.suite import BASE, BenchmarkSuite, RunConfig
from repro.runtime.limit import Category

from tests.integration.test_correctness import CONFIGS

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_exec_stats.json")

RUN_CONFIGS = dict(CONFIGS, base=BASE)

#: Figure 9's before/after pair; the "after" one is also Figure 10's.
LIMIT_CONFIGS = {
    "base": BASE,
    "rle-smftr": RunConfig(analysis="SMFieldTypeRefs"),
}

STAT_FIELDS = ("instructions", "heap_loads", "other_loads", "heap_stores",
               "other_stores", "calls", "allocations", "cycles")


def run_record(suite, name, config_name):
    stats = suite.run(name, RUN_CONFIGS[config_name])
    record = {field: getattr(stats, field) for field in STAT_FIELDS}
    record["output_sha256"] = hashlib.sha256(
        stats.output_text().encode()).hexdigest()
    return record


def limit_record(suite, name, config_name):
    report = suite.limit_study(name, LIMIT_CONFIGS[config_name])
    return {
        "total_heap_loads": report.total_heap_loads,
        "redundant_loads": report.redundant_loads,
        "categories": {c.value: report.by_category[c] for c in Category},
    }


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as f:
        return json.load(f)


@pytest.mark.parametrize("name", registry.benchmark_names())
@pytest.mark.parametrize("config_name", sorted(RUN_CONFIGS))
def test_execution_stats(suite, golden, name, config_name):
    assert run_record(suite, name, config_name) == \
        golden["runs"][name][config_name]


@pytest.mark.parametrize("name", registry.dynamic_benchmark_names())
@pytest.mark.parametrize("config_name", sorted(LIMIT_CONFIGS))
def test_limit_study_counts(suite, golden, name, config_name):
    assert limit_record(suite, name, config_name) == \
        golden["limit"][name][config_name]


@pytest.fixture(scope="module")
def fresh_suite():
    return BenchmarkSuite()


@pytest.mark.parametrize("name", registry.dynamic_benchmark_names())
@pytest.mark.parametrize("config_name", sorted(LIMIT_CONFIGS))
def test_traced_execution_counts_as_untraced(fresh_suite, golden, name,
                                             config_name):
    """The limit study's execution, tracer and machine attached together
    and before any untraced run, is the one ``run()`` then returns."""
    limit = limit_record(fresh_suite, name, config_name)
    assert run_record(fresh_suite, name, config_name) == \
        golden["runs"][name][config_name]
    assert limit == golden["limit"][name][config_name]


def regenerate(path: str = GOLDEN) -> None:
    suite = BenchmarkSuite()
    data = {
        "runs": {
            name: {c: run_record(suite, name, c) for c in sorted(RUN_CONFIGS)}
            for name in registry.benchmark_names()
        },
        "limit": {
            name: {c: limit_record(suite, name, c)
                   for c in sorted(LIMIT_CONFIGS)}
            for name in registry.dynamic_benchmark_names()
        },
    }
    with open(path, "w") as f:
        json.dump(data, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    regenerate()
