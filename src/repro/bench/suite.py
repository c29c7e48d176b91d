"""Suite driver: compile once, optimize/run per configuration, cache.

The figures re-run the same programs under several configurations (base,
three TBAA levels, open world, Minv+Inlining combos); the suite memoises
compiled programs, builds and executions so each (benchmark, config)
pair executes once per suite: under the machine model, and traced too
when :meth:`BenchmarkSuite.limit_study` asks for it first.

A suite is either the registered paper benchmarks (the default) or an
arbitrary directory of ``.m3`` files (:meth:`BenchmarkSuite.from_directory`);
the table/figure generators only go through the suite's accessors
(:meth:`names`, :meth:`dynamic_names`, :meth:`load_source`,
:meth:`description`), so they work over both.
"""

import os
from typing import Dict, List, Optional, Tuple

from repro import Program, compile_program
from repro.bench import registry
from repro.obs import core as obs
from repro.opt.pipeline import PipelineResult
from repro.runtime import (ExecutionStats, Interpreter, LoadStoreTracer,
                           MachineModel, RedundancyReport, classify)


class RunConfig:
    """One named optimization configuration."""

    def __init__(
        self,
        analysis: Optional[str] = None,  # None = no RLE
        minv_inline: bool = False,
        open_world: bool = False,
        hoist: bool = True,
        see_dope_loads: bool = False,
        copyprop: bool = False,
        pre: bool = False,
    ):
        self.analysis = analysis
        self.minv_inline = minv_inline
        self.open_world = open_world
        self.hoist = hoist
        self.see_dope_loads = see_dope_loads
        self.copyprop = copyprop
        self.pre = pre

    def key(self) -> Tuple:
        return (
            self.analysis,
            self.minv_inline,
            self.open_world,
            self.hoist,
            self.see_dope_loads,
            self.copyprop,
            self.pre,
        )

    @property
    def is_base(self) -> bool:
        return (
            self.analysis is None
            and not self.minv_inline
            and not self.copyprop
        )

    def __repr__(self) -> str:
        return "<RunConfig {}>".format(self.key())


BASE = RunConfig()


class BenchmarkSuite:
    """Caching driver over the registered benchmarks, or over an
    explicit ``name -> source path`` mapping (directory suites)."""

    def __init__(self, sources: Optional[Dict[str, str]] = None) -> None:
        self._sources = dict(sources) if sources is not None else None
        self._programs: Dict[str, Program] = {}
        self._pipelines: Dict[Tuple[str, Tuple], PipelineResult] = {}
        # (name, config key) -> (stats, limit-study report if traced)
        self._executions: Dict[Tuple[str, Tuple],
                               Tuple[ExecutionStats, Optional[RedundancyReport]]] = {}

    @classmethod
    def from_directory(cls, directory: str) -> "BenchmarkSuite":
        """A suite over every ``*.m3`` file in *directory* (sorted, named
        by file stem).  Raises ``FileNotFoundError`` if there are none."""
        entries = sorted(
            f for f in os.listdir(directory) if f.endswith(".m3")
        )
        if not entries:
            raise FileNotFoundError(
                "no .m3 programs found in {!r}".format(directory)
            )
        return cls(
            sources={
                os.path.splitext(f)[0]: os.path.join(directory, f)
                for f in entries
            }
        )

    # -- program-set accessors (the generators' only view) -------------

    def names(self) -> List[str]:
        """Every program name in this suite, in stable order."""
        if self._sources is not None:
            return list(self._sources)
        return registry.benchmark_names()

    def dynamic_names(self) -> List[str]:
        """Names whose programs are executed for the dynamic figures
        (directory suites treat every program as dynamic)."""
        if self._sources is not None:
            return list(self._sources)
        return registry.dynamic_benchmark_names()

    def is_dynamic(self, name: str) -> bool:
        return self._sources is not None or registry.info(name).dynamic

    def load_source(self, name: str) -> str:
        if self._sources is not None:
            with open(self._sources[name]) as f:
                return f.read()
        return registry.load_source(name)

    def source_path(self, name: str) -> str:
        if self._sources is not None:
            return self._sources[name]
        return registry.source_path(name)

    def description(self, name: str) -> str:
        if self._sources is not None:
            return ""
        return registry.info(name).description

    def drop(self, name: str) -> None:
        """Remove one program from a directory suite (e.g. after its
        compile failed) so the generators skip it."""
        if self._sources is None:
            raise ValueError("cannot drop programs from the registry suite")
        self._sources.pop(name, None)
        self._programs.pop(name, None)

    # ------------------------------------------------------------------

    def program(self, name: str) -> Program:
        prog = self._programs.get(name)
        if prog is None:
            with obs.span("bench.compile", program=name):
                prog = compile_program(self.load_source(name), name)
            self._programs[name] = prog
        return prog

    def build(self, name: str, config: RunConfig = BASE) -> PipelineResult:
        key = (name, config.key())
        result = self._pipelines.get(key)
        if result is None:
            program = self.program(name)
            with obs.span("bench.build", program=name,
                          config=repr(config.key())):
                if config.is_base:
                    result = program.base()
                else:
                    result = program.pipeline.build(
                        analysis=config.analysis,
                        rle=config.analysis is not None,
                        minv_inline=config.minv_inline,
                        open_world=config.open_world,
                        hoist=config.hoist,
                        see_dope_loads=config.see_dope_loads,
                        copyprop=config.copyprop,
                        pre=config.pre,
                    )
            self._pipelines[key] = result
        return result

    def run(self, name: str, config: RunConfig = BASE) -> ExecutionStats:
        """Stats of the cached execution; executes untraced if none is."""
        key = (name, config.key())
        if key not in self._executions:
            self._executions[key] = (self._execute(name, config), None)
        return self._executions[key][0]

    def limit_study(self, name: str, config: RunConfig = BASE) -> RedundancyReport:
        """Dynamic redundancy of the cached traced execution; executes
        traced (machine model attached) if the config has none yet."""
        key = (name, config.key())
        report = self._executions.get(key, (None, None))[1]
        if report is None:
            tracer = LoadStoreTracer()
            stats = self._execute(name, config, tracer)
            with obs.span("bench.limit_study", program=name):
                report = classify(tracer, self.build(name, config).load_status)
                del tracer  # its per-address map is freed inside the span
            self._executions[key] = (stats, report)
        return report

    def _execute(self, name: str, config: RunConfig,
                 tracer: Optional[LoadStoreTracer] = None) -> ExecutionStats:
        result = self.build(name, config)
        with obs.span("bench.run", program=name, config=repr(config.key())):
            return Interpreter(result.program, machine=MachineModel(),
                               tracer=tracer).run()
