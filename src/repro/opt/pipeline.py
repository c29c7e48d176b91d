"""Optimization pipeline driver.

The evaluation runs each benchmark under several configurations:

* **base** — straight lowering, GCC-style baseline (the paper's original
  programs already had standard optimizations on; our baseline likewise
  keeps scalars in registers and does nothing about heap loads);
* **RLE(analysis)** — redundant load elimination under one of the three
  TBAA levels (Figure 8);
* **Minv+Inlining** — devirtualization + inlining (Figure 11);
* **RLE+Minv+Inlining** — both (Figure 11);
* open-world variants of any of the above (Figure 12).

Because the optimizers mutate the IR, every configuration lowers a fresh
ProgramIR from the (immutable) checked module.
"""

from typing import Dict, Optional

from repro.analysis.modref import ModRefAnalysis
from repro.analysis.openworld import AnalysisContext
from repro.analysis.smtyperefs import SMTypeRefsOracle
from repro.analysis.trivial import AlwaysAliasAnalysis
from repro.ir import instructions as ins
from repro.ir.cfg import ProgramIR
from repro.ir.lowering import lower_module
from repro.lang.typecheck import CheckedModule
from repro.obs import core as obs
from repro.opt.copyprop import CopyPropagation, CopyPropagationStats
from repro.opt.inline import Inliner, InlineStats
from repro.opt.methodres import MethodResolution, MethodResolutionStats
from repro.opt.rle import RedundantLoadElimination, RLEStatistics


class PipelineResult:
    """A lowered, optionally optimized program plus pass statistics."""

    def __init__(self, program: ProgramIR, label: str):
        self.program = program
        self.label = label
        self.rle: Optional[RLEStatistics] = None
        self.methodres: Optional[MethodResolutionStats] = None
        self.inline: Optional[InlineStats] = None
        self.copyprop: Optional[CopyPropagationStats] = None

    @property
    def load_status(self) -> Dict[ins.Instr, str]:
        """Per-load static status for the limit study (empty for base)."""
        return self.rle.load_status if self.rle else {}

    def __repr__(self) -> str:
        return "<PipelineResult {}>".format(self.label)


class OptimizationPipeline:
    """Builds optimized programs from one checked module."""

    def __init__(self, checked: CheckedModule):
        self.checked = checked
        self._contexts: Dict[bool, AnalysisContext] = {}

    def context(self, open_world: bool = False) -> AnalysisContext:
        ctx = self._contexts.get(open_world)
        if ctx is None:
            ctx = AnalysisContext(self.checked, open_world=open_world)
            self._contexts[open_world] = ctx
        return ctx

    # ------------------------------------------------------------------

    def base(self) -> PipelineResult:
        """The paper's baseline: lowering + the GCC back end's local CSE.

        The paper normalises Figures 8/11/12 against programs compiled
        "with all of GCC's optimizations", and notes "GCC eliminates
        redundant loads without any assignments to memory between them".
        We reproduce that back end as block-local RLE with no alias
        analysis (everything aliases, calls kill all) over *all* loads,
        dope vectors included (the back end sees machine code).
        """
        with obs.span("pipeline.base", module=self.checked.name):
            program = lower_module(self.checked)
            result = PipelineResult(program, "base")
            _backend_local_cse(program)
            return result

    def build(
        self,
        analysis: Optional[str] = "SMFieldTypeRefs",
        rle: bool = True,
        minv_inline: bool = False,
        open_world: bool = False,
        hoist: bool = True,
        see_dope_loads: bool = False,
        copyprop: bool = False,
        pre: bool = False,
        max_callee_size: int = Inliner.DEFAULT_MAX_CALLEE_SIZE,
    ) -> PipelineResult:
        """Lower and optimize under one configuration.

        ``copyprop`` and ``pre`` are the extensions beyond the paper
        (copy propagation for the Breakup category; speculative PRE of
        loads for the Conditional category).
        """
        label_parts = []
        pipeline_span = obs.span("pipeline.build", module=self.checked.name,
                                 analysis=analysis if rle else None,
                                 open_world=open_world)
        with pipeline_span:
            program = lower_module(self.checked)
            ctx = self.context(open_world)

            result = PipelineResult(program, "base")
            if minv_inline:
                with obs.span("opt.methodres"):
                    type_refs = SMTypeRefsOracle(
                        self.checked, ctx.subtypes, ctx.assignments,
                        open_world=open_world
                    )
                    resolver = MethodResolution(program, type_refs)
                    result.methodres = resolver.run()
                with obs.span("opt.inline"):
                    inliner = Inliner(program, max_callee_size=max_callee_size)
                    result.inline = inliner.run()
                label_parts.append("minv+inline")

            if copyprop:
                with obs.span("opt.copyprop"):
                    result.copyprop = CopyPropagation(program).run()
                label_parts.append("copyprop")

            if rle:
                assert analysis is not None
                alias = ctx.build(analysis)
                with obs.span("opt.rle", analysis=analysis):
                    modref = ModRefAnalysis(program)
                    rle_pass = RedundantLoadElimination(
                        program,
                        alias,
                        modref,
                        hoist=hoist,
                        see_dope_loads=see_dope_loads,
                        pre=pre,
                    )
                    result.rle = rle_pass.run()
                label_parts.append("rle[{}]".format(analysis))
                if pre:
                    label_parts.append("pre")

            # The back end runs last in every configuration (as GCC did
            # for the paper): it mops up block-local redundancy RLE also
            # covers, so it only matters when RLE is off or weaker.
            with obs.span("opt.backend_cse"):
                _backend_local_cse(program)

        if open_world:
            label_parts.append("open-world")
        result.label = "+".join(label_parts) if label_parts else "base"
        return result


def _backend_local_cse(program: ProgramIR) -> None:
    """Block-local, no-alias-analysis load CSE (the GCC back end)."""
    RedundantLoadElimination(
        program,
        AlwaysAliasAnalysis(),
        modref=None,
        hoist=False,
        see_dope_loads=True,
        local_only=True,
        calls_kill_all=True,
        record_status=False,
    ).run()
