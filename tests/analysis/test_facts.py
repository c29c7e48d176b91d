"""Fact serialization: hashes, flattened exports, bundle versioning."""

import pickle

import pytest

from repro import compile_program
from repro.analysis.facts import (
    FACTS_SCHEMA_VERSION,
    bundle_is_current,
    collect_world_facts,
    diff_proc_hashes,
    new_bundle,
    proc_ir_hashes,
    source_hash,
)

SOURCE = """
MODULE Facts;

TYPE
  T = OBJECT f: T; n: INTEGER; END;
  S = T OBJECT g: T; END;

VAR root: T;

PROCEDURE Alpha (p: T) =
BEGIN
  p.f := p;
END Alpha;

PROCEDURE Beta (p: T; VAR k: INTEGER) =
BEGIN
  k := p.n;
END Beta;

VAR n: INTEGER;

BEGIN
  root := NEW (S);
  Alpha (root);
  Beta (root, n);
END Facts.
"""


def test_source_hash_is_content_addressed():
    assert source_hash(SOURCE) == source_hash(SOURCE)
    assert source_hash(SOURCE) != source_hash(SOURCE + " ")
    assert len(source_hash(SOURCE)) == 64


def test_proc_hashes_stable_across_compiles_and_edit_localised():
    base1 = compile_program(SOURCE, "f1").base().program
    base2 = compile_program(SOURCE, "f2").base().program
    h1, h2 = proc_ir_hashes(base1), proc_ir_hashes(base2)
    # Pure function of the lowered IR: no ids/addresses leak in.
    assert h1 == h2
    assert {"Alpha", "Beta"} <= set(h1)

    edited = SOURCE.replace("k := p.n;", "k := p.n + 1;")
    h3 = proc_ir_hashes(compile_program(edited, "f3").base().program)
    changed, unchanged = diff_proc_hashes(h1, h3)
    assert changed == ["Beta"]
    assert "Alpha" in unchanged


def test_diff_counts_added_and_removed_as_changed():
    old = {"A": "1", "B": "2"}
    new = {"B": "2", "C": "3"}
    changed, unchanged = diff_proc_hashes(old, new)
    assert changed == ["A", "C"]
    assert unchanged == ["B"]


def test_collect_world_facts_summary_shapes():
    program = compile_program(SOURCE, "facts.m3")
    for open_world in (False, True):
        facts = collect_world_facts(program.pipeline.context(open_world))
        assert facts.open_world is open_world
        summary = facts.summary()
        assert summary["open_world"] is open_world
        assert summary["object_types"] >= 2       # T, S at least
        assert summary["pointer_types"] >= 2
        assert summary["steensgaard_classes"] >= 1
        # The exports are deterministic: rebuild and compare.
        again = collect_world_facts(program.pipeline.context(open_world))
        assert again.subtype_masks == facts.subtype_masks
        assert again.typerefs_masks == facts.typerefs_masks
        assert again.steensgaard_classes == facts.steensgaard_classes
        assert again.address_taken == facts.address_taken


def test_open_world_facts_differ_from_closed():
    program = compile_program(SOURCE, "facts.m3")
    closed = collect_world_facts(program.pipeline.context(False))
    opened = collect_world_facts(program.pipeline.context(True))
    assert closed.address_taken != opened.address_taken


def test_bundle_versioning_and_pickle_roundtrip():
    key = source_hash(SOURCE)
    bundle = new_bundle("Facts", key, {"Alpha": "aa", "Beta": "bb"})
    assert bundle.schema == FACTS_SCHEMA_VERSION
    assert bundle_is_current(bundle)
    clone = pickle.loads(pickle.dumps(bundle))
    assert bundle_is_current(clone)
    assert clone.proc_hashes == bundle.proc_hashes

    stale = new_bundle("Facts", key, {})
    stale.schema = FACTS_SCHEMA_VERSION + 1
    assert not bundle_is_current(stale)
    from_old_build = new_bundle("Facts", key, {})
    from_old_build.repro_version = "0.0.0"
    assert not bundle_is_current(from_old_build)
    assert not bundle_is_current("not a bundle")


@pytest.mark.parametrize("analysis", ["TypeDecl", "SMFieldTypeRefs"])
def test_config_facts_store_counts_per_configuration(analysis):
    from repro.analysis.alias_pairs import AliasPairCounter
    from repro.analysis.facts import ConfigFacts

    program = compile_program(SOURCE, "facts.m3")
    base = program.base().program
    alias = program.analysis(analysis)
    report = AliasPairCounter(base, alias, engine="fast").count()
    facts = ConfigFacts(
        analysis=analysis, open_world=False,
        references=report.references, local_pairs=report.local_pairs,
        global_pairs=report.global_pairs)
    assert facts.counts() == \
        AliasPairCounter(base, alias, engine="reference").count().counts()

    bundle = new_bundle("Facts", source_hash(SOURCE), {})
    bundle.add_config(facts)
    assert bundle.config(analysis, False) is facts
    assert bundle.config(analysis, True) is None
    restored = pickle.loads(pickle.dumps(bundle))
    assert restored.config(analysis, False).counts() == facts.counts()
