"""Fact partitions: hashes, world summaries, the bundle's JSON layout."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import compile_program
from repro.analysis.facts import (
    FACTS_SCHEMA_VERSION,
    FactBundle,
    diff_proc_hashes,
    new_bundle,
    proc_ir_hashes,
    source_hash,
    world_summary,
)
from repro.bench import registry

SRC = Path(__file__).resolve().parents[2] / "src"

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
    lowered1 = compile_program(SOURCE, "f1").lowered()
    lowered2 = compile_program(SOURCE, "f2").lowered()
    h1, h2 = proc_ir_hashes(lowered1), proc_ir_hashes(lowered2)
    # Pure function of the lowered IR: no ids/addresses leak in.
    assert h1 == h2
    assert {"Alpha", "Beta"} <= set(h1)

    edited = SOURCE.replace("k := p.n;", "k := p.n + 1;")
    h3 = proc_ir_hashes(compile_program(edited, "f3").lowered())
    changed, unchanged = diff_proc_hashes(h1, h3)
    assert changed == ["Beta"]
    assert "Alpha" in unchanged


def test_proc_hashes_match_a_child_process():
    # Here in reverse suite order, after whatever this process compiled
    # before; in the child in suite order, in a fresh process.
    names = registry.benchmark_names()
    here = {name: proc_ir_hashes(
                compile_program(registry.load_source(name), name).lowered())
            for name in reversed(names)}
    code = ("import json; from repro import compile_program; "
            "from repro.analysis.facts import proc_ir_hashes; "
            "from repro.bench import registry; "
            "print(json.dumps({n: proc_ir_hashes(compile_program("
            "registry.load_source(n), n).lowered()) "
            "for n in registry.benchmark_names()}))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    child = subprocess.run([sys.executable, "-c", code], env=env,
                           capture_output=True, text=True, check=True)
    assert json.loads(child.stdout) == here


def test_diff_counts_added_and_removed_as_changed():
    old = {"A": "1", "B": "2"}
    new = {"B": "2", "C": "3"}
    changed, unchanged = diff_proc_hashes(old, new)
    assert changed == ["A", "C"]
    assert unchanged == ["B"]


def test_collect_world_facts_summary_shapes():
    program = compile_program(SOURCE, "facts.m3")
    for open_world in (False, True):
        summary = world_summary(program.pipeline.context(open_world))
        assert summary["open_world"] is open_world
        assert summary["object_types"] >= 2       # T, S at least
        assert summary["pointer_types"] >= 2
        assert summary["steensgaard_classes"] >= 1
        # The counts are deterministic: recompile and compare.
        again = compile_program(SOURCE, "facts2.m3")
        assert world_summary(again.pipeline.context(open_world)) == summary


def test_open_world_facts_differ_from_closed():
    program = compile_program(SOURCE, "facts.m3")
    closed = world_summary(program.pipeline.context(False))
    opened = world_summary(program.pipeline.context(True))
    assert closed != opened
    assert {k: v for k, v in closed.items() if k != "open_world"} == \
        {k: v for k, v in opened.items() if k != "open_world"}


def _full_bundle():
    """A bundle with every field filled: procedures, configs, worlds."""
    from repro.analysis.facts import ConfigFacts

    program = compile_program(SOURCE, "facts.m3")
    bundle = new_bundle("Facts", source_hash(SOURCE),
                        proc_ir_hashes(program.lowered()))
    for i, open_world in enumerate((False, True)):
        bundle.add_config(ConfigFacts(
            analysis="TypeDecl", open_world=open_world, references=7 + i,
            local_pairs=3, global_pairs=11))
        bundle.worlds[open_world] = world_summary(
            program.pipeline.context(open_world))
    return bundle


def test_bundle_versioning_and_json_roundtrip():
    bundle = _full_bundle()
    assert bundle.schema == FACTS_SCHEMA_VERSION
    # Plain data: through a JSON text and back, equal field for field.
    clone = FactBundle.from_json(json.loads(json.dumps(bundle.to_json())))
    assert clone == bundle
    assert clone.config("TypeDecl", True).counts() == (8, 3, 11)

    stale = bundle.to_json()
    stale["schema"] = FACTS_SCHEMA_VERSION - 1
    with pytest.raises(ValueError):
        FactBundle.from_json(stale)
    from_old_build = bundle.to_json()
    from_old_build["repro_version"] = "0.0.0"
    with pytest.raises(ValueError):
        FactBundle.from_json(from_old_build)
    for not_a_bundle in (None, [], "bundle", 3):
        with pytest.raises(ValueError):
            FactBundle.from_json(not_a_bundle)


def _reshaped(mutate):
    obj = json.loads(json.dumps(_full_bundle().to_json()))
    mutate(obj)
    return obj


@pytest.mark.parametrize("mutate", [
    lambda obj: obj.pop("worlds"),
    lambda obj: obj.update(extra=1),
    lambda obj: obj.update(module_hash=None),
    lambda obj: obj.update(proc_hashes={"Alpha": 1}),
    lambda obj: obj.update(configs={}),
    lambda obj: obj["configs"].append(["TypeDecl", False, 1, 2, 3]),
    lambda obj: obj["configs"][0].update(references=True),
    lambda obj: obj["configs"][0].update(references="7"),
    lambda obj: obj["configs"][0].pop("global_pairs"),
    lambda obj: obj["worlds"][0].update(object_types=2.0),
    lambda obj: obj["worlds"][1].update(open_world=1),
], ids=["no-worlds", "extra-key", "null-hash", "int-proc-hash",
        "configs-object", "config-array", "bool-count", "string-count",
        "missing-count", "float-count", "int-world"])
def test_from_json_rejects_every_other_shape(mutate):
    with pytest.raises(ValueError):
        FactBundle.from_json(_reshaped(mutate))


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
    restored = FactBundle.from_json(bundle.to_json())
    assert restored.config(analysis, False).counts() == facts.counts()
