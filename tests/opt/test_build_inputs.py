"""A build depends on its own inputs only.

RLE asks its alias queries in an order fixed by the program, not by
string hashes, so the ``alias.cache.*`` counters of a build repeat under
any ``PYTHONHASHSEED``; and inlining extends the caller's
``ProcIR.variables``, never the checked module every later build reads.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro import compile_program
from repro.bench import registry

ROOT = Path(__file__).resolve().parents[2]

COUNT_QUERIES = """
import json
from repro import compile_program
from repro.bench import registry
from repro.obs import metrics
for name in registry.benchmark_names():
    program = compile_program(registry.load_source(name), name)
    for analysis in ("TypeDecl", "SMFieldTypeRefs"):
        program.pipeline.build(analysis=analysis)
print(json.dumps([[s["name"], s["labels"], s["value"]]
                  for s in metrics.registry().snapshot()
                  if s["name"].startswith("alias.cache.")]))
"""


def count_queries(hash_seed: str):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    child = subprocess.run([sys.executable, "-c", COUNT_QUERIES], env=env,
                           cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(child.stdout)


def test_alias_query_counts_do_not_depend_on_the_hash_seed():
    first = count_queries("1")
    assert {name for name, _, _ in first} == {"alias.cache.hits",
                                               "alias.cache.misses"}
    assert count_queries("2") == first


def test_inlining_leaves_the_checked_symbols_as_compiled():
    for name in registry.benchmark_names():
        program = compile_program(registry.load_source(name), name)
        before = {proc: list(checked.all_symbols)
                  for proc, checked in program.checked.procs.items()}
        build = program.pipeline.build(analysis="SMFieldTypeRefs",
                                       minv_inline=True)
        after = {proc: list(checked.all_symbols)
                 for proc, checked in program.checked.procs.items()}
        assert after == before, name
        grown = [proc for proc in build.program.user_procs()
                 if len(proc.variables) > len(proc.checked.all_symbols)]
        assert grown, name  # compiler locals and inlined callees' variables
