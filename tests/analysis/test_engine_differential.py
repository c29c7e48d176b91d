"""Differential test for the two alias-pair counting engines.

The partition-based ``fast`` engine must produce byte-identical Table 5
counts to the per-pair ``reference`` loop, for every bundled benchmark,
every analysis (including the Steensgaard baseline and the trivial
analyses exercising the generic fallback), closed and open world, and
for a 200-seed sweep of generated programs.  The ``differential`` engine
runs both and raises AssertionError on any mismatch.
"""

import pytest

from repro import compile_program
from repro.analysis import (
    ANALYSIS_NAMES,
    EXTRA_ANALYSIS_NAMES,
    AliasPairCounter,
    AlwaysAliasAnalysis,
    NeverAliasAnalysis,
)
from repro.analysis.openworld import AnalysisContext
from repro.bench import registry
from repro.bench.suite import BASE
from repro.qa.generator import GenConfig, generate_program

FUZZ_SEEDS = 200
FUZZ_CONFIG = GenConfig(max_object_types=4, max_procs=3, max_stmts=14)


@pytest.mark.parametrize("name", registry.benchmark_names())
def test_engines_agree_closed_world(suite, name):
    program = suite.program(name)
    base = suite.build(name, BASE)
    for analysis_name in ANALYSIS_NAMES + EXTRA_ANALYSIS_NAMES:
        analysis = AnalysisContext(program.checked).build(analysis_name)
        report = AliasPairCounter(
            base.program, analysis, engine="differential"
        ).count()
        assert report.references > 0


@pytest.mark.parametrize("name", registry.benchmark_names())
def test_engines_agree_open_world(suite, name):
    program = suite.program(name)
    base = suite.build(name, BASE)
    for analysis_name in ANALYSIS_NAMES:
        analysis = program.analysis(analysis_name, open_world=True)
        AliasPairCounter(base.program, analysis, engine="differential").count()


@pytest.mark.parametrize("analysis", [AlwaysAliasAnalysis(), NeverAliasAnalysis()])
def test_generic_fallback_agrees(suite, analysis):
    """Analyses without Table 2 structure go through the generic path."""
    base = suite.build("slisp", BASE)
    AliasPairCounter(base.program, analysis, engine="differential").count()


def test_fuzz_seeds_fast_matches_reference():
    """fast == reference over a wide range of generated shapes."""
    for seed in range(FUZZ_SEEDS):
        generated = generate_program(seed, FUZZ_CONFIG)
        program = compile_program(generated.render(), generated.name)
        ir = program.pipeline.base().program
        for analysis_name in ANALYSIS_NAMES:
            analysis = program.analysis(analysis_name)
            AliasPairCounter(ir, analysis, engine="differential").count()


def test_unknown_engine_rejected(suite):
    base = suite.build("format", BASE)
    program = suite.program("format")
    with pytest.raises(ValueError):
        AliasPairCounter(
            base.program, program.analysis("TypeDecl"), engine="bogus"
        )
    with pytest.raises(ValueError):
        AliasPairCounter(
            base.program, program.analysis("TypeDecl"), engine="bulk"
        )
