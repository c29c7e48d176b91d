"""Printed IR is a function of the source, not of the process.

Each procedure numbers its own blocks, temporaries, compiler locals and
fresh roots, and RLE walks a loop body in program order, not in the
order of a set of blocks hashed by identity.  So every bundled program
prints the same IR — lowered, base, and under every configuration the
tables build — whether the suite is built in order, in reverse order,
or in a child process that compiled nothing else first.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import compile_program
from repro.analysis import ANALYSIS_NAMES
from repro.bench import registry
from repro.ir.printer import format_program

ROOT = Path(__file__).resolve().parents[2]

#: Every optimized build ``repro tables`` makes: each analysis with and
#: without Minv+Inlining, Minv+Inlining alone, and the open world.
CONFIGS = (
    [dict(analysis=a, minv_inline=m) for a in ANALYSIS_NAMES
     for m in (False, True)]
    + [dict(analysis=None, rle=False, minv_inline=True),
       dict(analysis="SMFieldTypeRefs", open_world=True)]
)


def printed_builds(names):
    """``{(program, build): format_program(...)}`` for *names*, in order."""
    out = {}
    for name in names:
        program = compile_program(registry.load_source(name), name)
        out[name, "lowered"] = format_program(program.lowered())
        out[name, "base"] = format_program(program.base().program)
        for config in CONFIGS:
            out[name, repr(sorted(config.items()))] = format_program(
                program.pipeline.build(**config).program)
    return out


def digests(names):
    """:func:`printed_builds` as ``[program, build, sha256]`` rows."""
    return [[name, build, hashlib.sha256(text.encode()).hexdigest()]
            for (name, build), text in printed_builds(names).items()]


@pytest.fixture(scope="module")
def three_orders():
    """Suite order, reverse order (texts) and a child process (digests)."""
    names = registry.benchmark_names()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH")) if p)
    code = ("import json; from repro.bench import registry; "
            "from tests.opt.test_hoist_order import digests; "
            "print(json.dumps(digests(registry.benchmark_names())))")
    child = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                           capture_output=True, text=True, check=True)
    in_child = {(name, build): sha
                for name, build, sha in json.loads(child.stdout)}
    return printed_builds(names), printed_builds(names[::-1]), in_child


@pytest.mark.parametrize("name", registry.benchmark_names())
def test_two_builds_print_the_same_ir(three_orders, name):
    in_order, reverse, in_child = three_orders
    mine = {key: text for key, text in in_order.items() if key[0] == name}
    assert len(mine) == 2 + len(CONFIGS)
    for key, text in mine.items():
        assert reverse[key] == text, key
        assert in_child[key] == hashlib.sha256(text.encode()).hexdigest(), key
