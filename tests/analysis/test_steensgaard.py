"""Steensgaard-on-types baseline tests (the paper's footnote 4).

    "If we took Steensgaard's algorithm and applied it to user defined
     types, it would not discover this asymmetry."
"""

import pytest

from repro.analysis import (
    AliasPairCounter,
    SteensgaardTypesOracle,
    SubtypeOracle,
    collect_address_taken,
)
from repro.analysis.smtyperefs import SMTypeRefsOracle
from repro.analysis.steensgaard import SteensgaardFieldTypeRefsAnalysis
from repro.ir.access_path import VarRoot
from repro.lang import check_module, parse_module
from repro.obs import metrics

PAPER_EXAMPLE = """
MODULE M;
TYPE
  T = OBJECT f, g: T; END;
  S1 = T OBJECT a: INTEGER; END;
  S2 = T OBJECT b: INTEGER; END;
  S3 = T OBJECT c: INTEGER; END;
VAR
  s1: S1 := NEW (S1);
  s2: S2 := NEW (S2);
  s3: S3 := NEW (S3);
  t: T;
BEGIN
  t := s1;
  t := s2;
END M.
"""


def build(source):
    checked = check_module(parse_module(source))
    sub = SubtypeOracle(checked)
    steens = SteensgaardTypesOracle(checked, sub)
    smtr = SMTypeRefsOracle(checked, sub)
    return checked, sub, steens, smtr


def test_misses_the_asymmetry():
    """After t := s1; t := s2, SMTypeRefs proves S1 paths cannot reference
    S2 objects; symmetric Steensgaard classes cannot."""
    checked, sub, steens, smtr = build(PAPER_EXAMPLE)
    roots = {g.name: VarRoot(g) for g in checked.globals}
    s1, s2 = roots["s1"], roots["s2"]
    # SMTypeRefs: no alias (the asymmetric table separates the siblings).
    assert smtr.types_compatible(s1, s2) is False
    # Steensgaard classes merged S1, S2 and T into one class: may-alias.
    assert steens.types_compatible(s1, s2) is True


def test_unmerged_types_still_separate():
    checked, sub, steens, smtr = build(PAPER_EXAMPLE)
    roots = {g.name: VarRoot(g) for g in checked.globals}
    # S3 was never assigned anywhere: both oracles keep it apart from the
    # S1/S2 class... except TypeDecl-style subtype closure keeps T~S3.
    assert steens.types_compatible(roots["s3"], roots["s1"]) is False
    assert steens.types_compatible(roots["s3"], roots["t"]) is True


def test_weaker_or_equal_to_smtyperefs_everywhere():
    checked, sub, steens, smtr = build(PAPER_EXAMPLE)
    roots = [VarRoot(g) for g in checked.globals]
    for i, p in enumerate(roots):
        for q in roots[i:]:
            if smtr.types_compatible(p, q):
                assert steens.types_compatible(p, q)


@pytest.mark.parametrize("name", ["format", "slisp", "postcard"])
def test_suite_pair_counts_ordered(suite, name):
    """SMFieldTypeRefs ⊆ SteensgaardFTR (pairs) on real programs."""
    program = suite.program(name)
    checked = program.checked
    base = suite.build(name)
    sub = SubtypeOracle(checked)
    taken = collect_address_taken(checked, sub)
    steens_analysis = SteensgaardFieldTypeRefsAnalysis(checked, sub, taken)
    smftr = program.analysis("SMFieldTypeRefs")
    steens_pairs = AliasPairCounter(base.program, steens_analysis).count()
    smftr_pairs = AliasPairCounter(base.program, smftr).count()
    assert smftr_pairs.local_pairs <= steens_pairs.local_pairs
    assert smftr_pairs.global_pairs <= steens_pairs.global_pairs


@pytest.mark.parametrize("name", ["slisp", "k-tree"])
def test_sound_against_dynamic_truth(suite, name):
    """The baseline must still be sound: dynamic aliases predicted."""
    from collections import defaultdict
    from repro.ir.access_path import strip_index
    from repro.runtime import Interpreter

    program = suite.program(name)
    checked = program.checked
    sub = SubtypeOracle(checked)
    taken = collect_address_taken(checked, sub)
    analysis = SteensgaardFieldTypeRefsAnalysis(checked, sub, taken)

    by_address = defaultdict(set)

    class Tracer:
        def on_load(self, instr, addr, value, activation):
            if instr.ap is not None:
                by_address[addr].add(strip_index(instr.ap))

        on_store = on_load

    result = suite.build(name)
    Interpreter(result.program, tracer=Tracer()).run()
    for aps in by_address.values():
        aps = sorted(aps, key=str)
        for i, p in enumerate(aps):
            for q in aps[i + 1 :]:
                assert analysis.may_alias(p, q), (str(p), str(q))


def test_factory_exposes_baseline():
    from repro.analysis import make_analysis

    checked = check_module(parse_module(PAPER_EXAMPLE))
    analysis = make_analysis(checked, "SteensgaardFieldTypeRefs")
    assert analysis.name == "SteensgaardFieldTypeRefs"


def test_oracle_builds_add_to_one_series_child():
    registry = metrics.registry()
    registry.reset()
    build(PAPER_EXAMPLE)
    sizes = registry.histogram("steensgaard.group.size")
    merges = registry.counter("steensgaard.unionfind.merges")
    observed, merged = sizes.count, merges.value
    build(PAPER_EXAMPLE)
    assert sizes.count == 2 * observed and merges.value == 2 * merged
    # One series each, and the registry holds one metric per series.
    assert [len(registry._series[name]) for name in (
        "steensgaard.group.size", "steensgaard.unionfind.merges")] == [1, 1]
