"""The spans the end-to-end benchmark's ``tables_suite`` layers sum.

``benchmarks/e2e`` maps each per-layer metric to the span names it sums
(``SPAN_LAYERS`` in ``common.py``), and ``tables_suite.py`` reports the
layers in its ``LAYERS``.  Neither file is imported by a tier-1 test, so
moving work between spans could silently zero a layer or count one
span's time twice.  This test reads both tables with ``ast``, as
``tests/test_e2e_api.py`` does, records one pass of the eight artifacts
over one program, and pins what the layers see: every summed span opens,
each (program, config) executes once, and no summed span sits under a
span another layer sums.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

from repro.bench import tables
from repro.bench.suite import BenchmarkSuite
from repro.obs import core

E2E = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"

#: The artifacts of ``repro tables``, in its order.
ARTIFACTS = (tables.table4, tables.table5, tables.table6, tables.figure8,
             tables.figure9, tables.figure10, tables.figure11,
             tables.figure12)


def _constant(filename, name):
    path = E2E / filename
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == name
                for target in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("{} assigns no {}".format(filename, name))


SPAN_LAYERS = _constant("common.py", "SPAN_LAYERS")
LAYERS = _constant("tables_suite.py", "LAYERS")
LAYER_OF = {span: layer for layer in LAYERS for span in SPAN_LAYERS[layer]}


@pytest.fixture(scope="module")
def spans():
    """Every span of one cold pass over write-pickle."""
    core.reset()
    core.enable()
    try:
        suite = BenchmarkSuite()
        for generator in ARTIFACTS:
            generator(suite, names=["write-pickle"])
        return core.recorder().spans()
    finally:
        core.disable()
        core.reset()


def test_every_summed_span_is_emitted(spans):
    emitted = {span.name for span in spans}
    assert sorted(set(LAYER_OF) - emitted) == []


def test_each_config_executes_once(spans):
    counts = Counter(span.name for span in spans)
    # Seven configs; the limit study classifies two of those executions.
    assert counts["bench.run"] == 7
    assert counts["bench.limit_study"] == 2
    assert counts["run.interp"] == 7
    assert counts["limit.replay"] == 0


def test_no_layer_sits_under_another(spans):
    by_id = {span.span_id: span for span in spans}
    nested = set()
    for span in spans:
        layer = LAYER_OF.get(span.name)
        parent = by_id.get(span.parent_id)
        while layer is not None and parent is not None:
            if LAYER_OF.get(parent.name, layer) != layer:
                nested.add((span.name, parent.name))
            parent = by_id.get(parent.parent_id)
    assert sorted(nested) == []
