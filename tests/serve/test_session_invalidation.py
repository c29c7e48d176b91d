"""Fact-cache invalidation at module and procedure granularity.

The satellite contract: edit one procedure in a multi-module program
and *only that module's* fact partition rebuilds — asserted through the
shared ``serve.*`` counter series, not through timing.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.facts import source_hash
from repro.bench import registry
from repro.obs import metrics
from repro.serve.factcache import FactStore
from repro.serve.session import SessionManager

SRC = Path(__file__).resolve().parents[2] / "src"

MODULE_TEMPLATE = """
MODULE {name};

TYPE
  T = OBJECT f: T; n: INTEGER; END;

VAR root: T;

PROCEDURE Alpha (p: T) =
BEGIN
  p.f := p;
END Alpha;

PROCEDURE Beta (p: T) =
BEGIN
  p.n := {beta_value};
END Beta;

PROCEDURE Gamma (p: T) =
BEGIN
  p.n := p.n + 1;
END Gamma;

BEGIN
  root := NEW (T);
  Alpha (root);
  Beta (root);
  Gamma (root);
END {name}.
"""


def _module(name, beta_value=1):
    return MODULE_TEMPLATE.format(name=name, beta_value=beta_value)


def _count(name):
    return int(metrics.registry().counter("serve." + name).value)


@pytest.fixture()
def manager(tmp_path):
    metrics.registry().reset()
    return SessionManager(store=FactStore(tmp_path / "cache"))


PROGRAM = {name: _module(name) for name in ("ModA", "ModB", "ModC")}


def _serve_all(manager, sources):
    for name, source in sources.items():
        session = manager.lookup(source, name=name)
        manager.tables(session, open_world=False)


def test_edit_one_procedure_rebuilds_only_its_partition(manager):
    _serve_all(manager, PROGRAM)
    assert _count("facts.rebuild") == 3          # one build per module
    assert _count("session.compile") == 3

    # Steady state: repeat queries touch no partition at all.
    _serve_all(manager, PROGRAM)
    assert _count("facts.rebuild") == 3
    assert _count("session.hit") == 3
    assert _count("facts.config_hit") == 9       # 3 modules x 3 analyses

    # Edit exactly one procedure body in exactly one module.
    edited = dict(PROGRAM)
    edited["ModB"] = _module("ModB", beta_value=2)
    _serve_all(manager, edited)

    # Only ModB's partition rebuilt; ModA/ModC answered warm.
    assert _count("facts.rebuild") == 4
    assert _count("session.compile") == 4
    assert _count("session.hit") == 5            # A and C again
    # Procedure-granular accounting: Beta changed, the rest reused.
    assert _count("invalidate.modules") == 1
    assert _count("invalidate.procs_changed") == 1
    procs_total = len(
        manager.lookup(edited["ModB"], name="ModB").bundle.proc_hashes)
    assert _count("invalidate.procs_reused") == procs_total - 1
    assert procs_total >= 3                      # Alpha, Beta, Gamma


def test_unedited_partitions_answer_from_disk_after_restart(manager, tmp_path):
    _serve_all(manager, PROGRAM)
    compiles_before = _count("session.compile")

    # A "restarted daemon": fresh manager over the same store.
    reborn = SessionManager(store=FactStore(tmp_path / "cache"))
    _serve_all(reborn, PROGRAM)
    # Every answer came from restored fact bundles — zero new compiles.
    assert _count("session.compile") == compiles_before
    assert _count("facts.rebuild") == 3
    assert _count("factcache.hit") == 3


def _edited_m3cg():
    """m3cg and m3cg with its first ``:= <integer>;`` literal changed
    (the site the serve_edit benchmark edits first): one procedure
    body, among 19 that branch and allocate."""
    source = registry.load_source("m3cg")
    site = re.search(r":=\s*(-?\d+)\s*;", source)
    edited = source[:site.start(1)] + str(int(site.group(1)) + 1) + \
        source[site.end(1):]
    return source, edited


def test_one_literal_edit_of_a_bundled_program_changes_one_procedure(manager):
    source, edited = _edited_m3cg()
    manager.lookup(source, name="m3cg")
    manager.lookup(edited, name="m3cg")
    assert _count("invalidate.modules") == 1
    assert _count("invalidate.procs_changed") == 1
    assert _count("invalidate.procs_reused") == 18


def test_edit_accounting_holds_across_a_restart(tmp_path):
    # The old text's partition is written by another process, so its
    # procedure hashes were taken by a process that compiled nothing else.
    metrics.registry().reset()
    source, edited = _edited_m3cg()
    code = ("import sys; from repro.bench import registry; "
            "from repro.serve.factcache import FactStore; "
            "from repro.serve.session import SessionManager; "
            "SessionManager(store=FactStore(sys.argv[1])).lookup("
            "registry.load_source('m3cg'), name='m3cg')")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    subprocess.run([sys.executable, "-c", code, str(tmp_path / "cache")],
                   env=env, check=True)
    manager = SessionManager(store=FactStore(tmp_path / "cache"))
    manager.lookup(source, name="m3cg")
    assert _count("factcache.hit") == 1
    assert _count("session.compile") == 0
    manager.lookup(edited, name="m3cg")
    assert _count("invalidate.procs_changed") == 1
    assert _count("invalidate.procs_reused") == 18


def test_old_partition_stays_valid_for_old_text(manager):
    old = PROGRAM["ModB"]
    new = _module("ModB", beta_value=5)
    s_old = manager.lookup(old, name="ModB")
    s_new = manager.lookup(new, name="ModB")
    assert s_old.module_hash != s_new.module_hash
    # Re-serving the *old* text hits its still-valid session.
    hits = _count("session.hit")
    again = manager.lookup(old, name="ModB")
    assert again is s_old
    assert _count("session.hit") == hits + 1
    # Re-keying accounted one module edit (old -> new).
    assert _count("invalidate.modules") >= 1


def test_lru_eviction_falls_back_to_fact_store(tmp_path):
    metrics.registry().reset()
    manager = SessionManager(store=FactStore(tmp_path / "cache"),
                             max_sessions=2)
    _serve_all(manager, PROGRAM)                 # 3 modules, cap 2
    assert _count("session.evict") == 1

    # The evicted module (ModA, least recent) restores from disk:
    # a session miss but NOT a fact rebuild, and no compile at all.
    rebuilds = _count("facts.rebuild")
    compiles = _count("session.compile")
    session = manager.lookup(PROGRAM["ModA"], name="ModA")
    counts = manager.alias_counts(session, "TypeDecl", open_world=False)
    assert counts[0] > 0
    assert _count("facts.rebuild") == rebuilds
    assert _count("session.compile") == compiles
    assert _count("factcache.hit") == 1


def test_partition_key_is_content_hash_of_source():
    source = PROGRAM["ModA"]
    metrics.registry().reset()
    manager = SessionManager(store=None)
    session = manager.lookup(source, name="whatever")
    assert session.module_hash == source_hash(source)
