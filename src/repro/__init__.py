"""repro — a reproduction of "Type-Based Alias Analysis" (PLDI 1998).

Diwan, McKinley & Moss describe three fast alias analyses built on
programming-language types — TypeDecl, FieldTypeDecl and SMFieldTypeRefs
— and evaluate them statically (alias pairs), through an optimization
(redundant load elimination), dynamically (simulated run time) and
against an upper bound (a trace-based limit study).  This package
rebuilds the entire stack from scratch:

* :mod:`repro.lang` — a front end for MiniM3, a type-safe Modula-3 subset;
* :mod:`repro.ir` — a typed CFG IR whose memory instructions carry access
  paths;
* :mod:`repro.analysis` — the three TBAA algorithms, AddressTaken,
  mod-ref, alias-pair metrics, and the open-world variants;
* :mod:`repro.opt` — RLE (CSE of loads + loop-invariant load motion),
  method resolution and inlining;
* :mod:`repro.runtime` — interpreter, cache/cost model and the dynamic
  redundancy limit study;
* :mod:`repro.bench` — the benchmark suite and table/figure generators.

Quick start::

    from repro import compile_program, Program

    program = compile_program('''
        MODULE Hello;
        TYPE T = OBJECT f: T; END;
        VAR t: T;
        BEGIN
          t := NEW (T, f := NEW (T));
          IF t.f # NIL THEN PutText ("linked!"); END;
        END Hello.
    ''')
    result = program.optimize("SMFieldTypeRefs")
    print(program.run(result).output_text())
"""

from typing import Optional

from repro.lang import parse_module, check_module, CheckedModule, CompileError
from repro.ir import lower_module, lower_program, ProgramIR
from repro.analysis import make_analysis, ANALYSIS_NAMES, AliasPairCounter
from repro.opt import OptimizationPipeline, PipelineResult
from repro.runtime import (
    Interpreter,
    ExecutionStats,
    LoadStoreTracer,
    MachineModel,
    RedundancyReport,
    classify,
)

__version__ = "1.0.0"

__all__ = [
    "Program",
    "compile_program",
    "parse_module",
    "check_module",
    "CheckedModule",
    "CompileError",
    "lower_module",
    "lower_program",
    "ProgramIR",
    "make_analysis",
    "ANALYSIS_NAMES",
    "AliasPairCounter",
    "OptimizationPipeline",
    "PipelineResult",
    "Interpreter",
    "ExecutionStats",
    "MachineModel",
    "RedundancyReport",
    "__version__",
]


class Program:
    """High-level facade over one MiniM3 program.

    Wraps the checked module and exposes the operations the paper's
    evaluation performs: build alias analyses, optimize, run, and study
    dynamic redundancy.
    """

    def __init__(self, checked: CheckedModule, source: str = ""):
        self.checked = checked
        self.source = source
        self.pipeline = OptimizationPipeline(checked)

    @property
    def name(self) -> str:
        return self.checked.name

    # -- analyses --------------------------------------------------------

    def analysis(self, name: str, open_world: bool = False):
        """One of 'TypeDecl' | 'FieldTypeDecl' | 'SMFieldTypeRefs'."""
        return self.pipeline.context(open_world).build(name)

    def alias_pairs(self, name: str, open_world: bool = False,
                    engine: str = "fast"):
        """Table 5's static metric for one analysis level.

        ``engine`` is ``'fast'`` (partition-based counter, the default),
        ``'reference'`` (the O(e²) per-pair loop), or ``'differential'``
        (runs both and asserts agreement).
        """
        program = self.pipeline.base().program
        counter = AliasPairCounter(
            program, self.analysis(name, open_world), engine=engine
        )
        return counter.count()

    # -- optimization ------------------------------------------------------

    def base(self) -> PipelineResult:
        return self.pipeline.base()

    def optimize(
        self,
        analysis: str = "SMFieldTypeRefs",
        minv_inline: bool = False,
        open_world: bool = False,
        **kwargs,
    ) -> PipelineResult:
        return self.pipeline.build(
            analysis=analysis,
            minv_inline=minv_inline,
            open_world=open_world,
            **kwargs,
        )

    # -- execution ----------------------------------------------------------

    def run(
        self,
        result: Optional[PipelineResult] = None,
        machine: Optional[MachineModel] = None,
    ) -> ExecutionStats:
        """Execute (optionally optimized) code; returns counters."""
        result = result or self.base()
        interp = Interpreter(result.program, machine=machine or MachineModel())
        return interp.run()

    def limit_study(self, result: Optional[PipelineResult] = None) -> RedundancyReport:
        """Figure 9/10's dynamic redundancy measurement: one execution
        under the tracer alone (no machine model), then classification."""
        from repro.obs import core as obs

        result = result or self.base()
        tracer = LoadStoreTracer()
        with obs.span("limit.replay", module=result.program.checked.name):
            Interpreter(result.program, tracer=tracer).run()
        return classify(tracer, result.load_status)


def compile_program(source: str, unit: str = "<input>") -> Program:
    """Parse and type-check MiniM3 source into a :class:`Program`."""
    from repro.obs import core as obs

    with obs.span("compile", unit=unit):
        return Program(check_module(parse_module(source, unit)), source)
