"""Every bundled program prints the IR it printed before.

``golden_ir_digests.json`` holds the sha256 of ``format_program`` for
each bundled program's lowered build, its base build and every
optimized build the tables make (``test_hoist_order.CONFIGS``).  A
change to how instructions are declared, built, cloned or printed must
leave all of them byte-identical; a change that means to move the IR
regenerates the file and says which builds moved.
"""

import json
from pathlib import Path

import pytest

from repro.bench import registry

from tests.opt.test_hoist_order import CONFIGS, digests

GOLDEN = json.loads((Path(__file__).parent / "golden_ir_digests.json").read_text())


@pytest.mark.parametrize("name", registry.benchmark_names())
def test_printed_ir_matches_golden(name):
    mine = {build: sha for _, build, sha in digests([name])}
    assert len(mine) == 2 + len(CONFIGS)
    assert mine == GOLDEN[name]
