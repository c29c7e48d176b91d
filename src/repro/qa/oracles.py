"""Soundness and consistency oracles for fuzzed MiniM3 programs.

:func:`check_program` takes one program (generated or plain source) and
runs every cross-check the repository's correctness argument rests on:

* **compile** — generated programs are type-correct by construction, so
  a :class:`~repro.lang.errors.CompileError` is itself a finding;
* **refinement** — on every pair of heap-reference APs the analyses must
  refine monotonically: ``SMFieldTypeRefs ⟹ FieldTypeDecl ⟹ TypeDecl``
  (a finer analysis reporting an alias the coarser one denies breaks the
  hierarchy of Section 2), and each closed-world answer must imply the
  open-world one;
* **engine** — the partition-based fast pair counter must agree exactly
  with the reference O(e²) loop on all three analyses;
* **dynamic soundness** — run the program under the tracer, record which
  access paths hit each heap address, and require every dynamically
  co-located pair to be a may-alias under *all* analyses (the paper's
  fundamental property).  Runtime traps and resource limits truncate the
  trace; the prefix is still checked;
* **cache** — clearing the memo cache must not change any answer, and
  the hit/miss counters must stay consistent with the cache size;
* **optimized** — every build the figures run (:data:`FIGURE_CONFIGS`),
  each distinct printed program run once, must end as the base program
  does: the same output, or a trap with the same message after the
  same output.  When base hits the step budget there is no ending to
  match, so the builds are not run; otherwise they get twice the
  budget, since hoisting may execute a few loads base does not.

Each phase runs inside its own bulkhead: an unexpected exception becomes
a ``crash`` violation carrying the traceback, and later phases still
run.  The report is JSON-serialisable for the batch runner.
"""

import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro import Program, compile_program
from repro.ir.access_path import AccessPath, strip_index
from repro.ir.cfg import ProgramIR
from repro.ir.printer import format_program
from repro.lang.errors import CompileError, ResourceLimitError
from repro.qa.generator import GeneratedProgram
from repro.qa.guards import MAX_STEPS
from repro.runtime import Interpreter
from repro.runtime.values import M3RuntimeError

__all__ = ["OracleViolation", "OracleReport", "check_program"]

#: Closed-world analysis names, coarse to fine.
LEVELS = ("TypeDecl", "FieldTypeDecl", "SMFieldTypeRefs")

#: Cap on distinct reference paths entering the all-pairs phases, so one
#: pathological program cannot stall a whole fuzzing batch.
MAX_STATIC_PATHS = 150

#: The optimized builds Figures 8, 11 and 12 run, as
#: ``OptimizationPipeline.build`` arguments.
FIGURE_CONFIGS = (
    dict(analysis="TypeDecl"),
    dict(analysis="FieldTypeDecl"),
    dict(analysis="SMFieldTypeRefs"),
    dict(analysis="SMFieldTypeRefs", open_world=True),
    dict(analysis=None, rle=False, minv_inline=True),
    dict(analysis="SMFieldTypeRefs", minv_inline=True),
)

#: How a run ended: ``("end" | "trap" | "budget" | "error", message,
#: output)``; an optimized build ending in a Python error is a miscompile.
Ending = Tuple[str, str, str]

@dataclass
class OracleViolation:
    """One broken invariant, with enough context to triage."""

    kind: str      # compile | refinement | open-world | engine |
    #                dynamic-soundness | cache | optimized | crash
    phase: str     # compile | static | engine | run | dynamic | cache |
    #                optimized
    message: str
    details: Dict[str, str] = field(default_factory=dict)

    def to_json(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "phase": self.phase,
            "message": self.message,
            "details": dict(self.details),
        }


@dataclass
class OracleReport:
    """Everything :func:`check_program` learned about one program."""

    name: str
    seed: Optional[int] = None
    violations: List[OracleViolation] = field(default_factory=list)
    phases: List[str] = field(default_factory=list)
    ran: bool = False        # interpreter reached END without trapping
    trapped: bool = False    # M3RuntimeError or resource limit hit
    references: int = 0      # distinct static heap-reference paths
    trace_pairs: int = 0     # dynamically co-located AP pairs checked

    @property
    def ok(self) -> bool:
        return not self.violations

    def first_kind(self) -> Optional[str]:
        return self.violations[0].kind if self.violations else None

    def to_json(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "seed": self.seed,
            "ok": self.ok,
            "phases": list(self.phases),
            "ran": self.ran,
            "trapped": self.trapped,
            "references": self.references,
            "trace_pairs": self.trace_pairs,
            "violations": [v.to_json() for v in self.violations],
        }


@contextmanager
def _bulkhead(report: OracleReport, phase: str):
    """Run one phase; unexpected exceptions become ``crash`` violations."""
    report.phases.append(phase)
    try:
        yield
    except (KeyboardInterrupt, SystemExit):
        raise
    except ResourceLimitError as exc:
        report.violations.append(
            OracleViolation(
                kind="resource",
                phase=phase,
                message=str(exc),
                details={"limit": exc.kind},
            )
        )
    except Exception as exc:  # the bulkhead: isolate, record, continue
        report.violations.append(
            OracleViolation(
                kind="crash",
                phase=phase,
                message="{}: {}".format(type(exc).__name__, exc),
                details={"traceback": traceback.format_exc()},
            )
        )


def check_program(
    source: Union[str, GeneratedProgram],
    name: str = "<fuzz>",
    seed: Optional[int] = None,
    max_steps: int = MAX_STEPS,
) -> OracleReport:
    """Run every oracle over one program and report all violations."""
    if isinstance(source, GeneratedProgram):
        if seed is None:
            seed = source.seed
        name = source.name
        text = source.render()
    else:
        text = source
    report = OracleReport(name=name, seed=seed)

    program: Optional[Program] = None
    report.phases.append("compile")
    try:
        program = compile_program(text, name)
    except CompileError as exc:
        report.violations.append(
            OracleViolation(
                kind="compile",
                phase="compile",
                message=str(exc),
                details={"rendered": exc.render(text)},
            )
        )
        return report
    except (KeyboardInterrupt, SystemExit):
        raise
    except Exception as exc:
        report.violations.append(
            OracleViolation(
                kind="crash",
                phase="compile",
                message="{}: {}".format(type(exc).__name__, exc),
                details={"traceback": traceback.format_exc()},
            )
        )
        return report

    analyses: Dict[Tuple[str, bool], object] = {}
    paths: List[AccessPath] = []

    with _bulkhead(report, "static"):
        for level in LEVELS:
            for open_world in (False, True):
                analyses[(level, open_world)] = program.analysis(level, open_world)
        paths = _reference_paths(program)
        report.references = len(paths)
        _check_refinement(report, analyses, paths)

    with _bulkhead(report, "engine"):
        _check_engines(report, program)

    trace: Dict[int, set] = {}
    base: Optional[Ending] = None
    with _bulkhead(report, "run"):
        base_ir = program.base().program
        trace, base = _run_traced(report, base_ir, max_steps)

    if analyses:
        with _bulkhead(report, "dynamic"):
            _check_dynamic(report, analyses, trace)

        with _bulkhead(report, "cache"):
            _check_cache(report, analyses, paths)

    if base is not None and base[0] != "budget":
        with _bulkhead(report, "optimized"):
            _check_optimized(report, program, base_ir, base, 2 * max_steps)

    return report


# ----------------------------------------------------------------------
# Phase implementations


def _reference_paths(program: Program) -> List[AccessPath]:
    seen: Dict[AccessPath, None] = {}
    for aps in program.heap_references().values():
        for ap in aps:
            seen.setdefault(ap, None)
    return list(seen)[:MAX_STATIC_PATHS]


def _check_refinement(
    report: OracleReport, analyses: Dict[Tuple[str, bool], object], paths: List[AccessPath]
) -> None:
    """Finer ⟹ coarser on every pair, and closed ⟹ open per level."""
    for i, p in enumerate(paths):
        for q in paths[i:]:  # include the diagonal: reflexivity matters
            for open_world in (False, True):
                answers = [
                    analyses[(level, open_world)].may_alias_canonical(p, q)
                    for level in LEVELS
                ]
                # answers = [coarse, mid, fine]: fine ⟹ mid ⟹ coarse.
                for fine in range(len(LEVELS) - 1, 0, -1):
                    if answers[fine] and not answers[fine - 1]:
                        report.violations.append(
                            OracleViolation(
                                kind="refinement",
                                phase="static",
                                message=(
                                    "{} says alias but {} says no for {} / {}".format(
                                        LEVELS[fine], LEVELS[fine - 1], p, q
                                    )
                                ),
                                details={
                                    "open_world": str(open_world),
                                    "p": str(p),
                                    "q": str(q),
                                },
                            )
                        )
            for level in LEVELS:
                closed = analyses[(level, False)].may_alias_canonical(p, q)
                if closed and not analyses[(level, True)].may_alias_canonical(p, q):
                    report.violations.append(
                        OracleViolation(
                            kind="open-world",
                            phase="static",
                            message=(
                                "closed-world {} aliases {} / {} but "
                                "open-world denies it".format(
                                    level, p, q)
                            ),
                            details={"level": level, "p": str(p),
                                     "q": str(q)},
                        )
                    )


def _check_engines(report: OracleReport, program: Program) -> None:
    """Fast counter ≡ reference counter, per analysis level."""
    for level in LEVELS:
        try:
            program.alias_pairs(level, engine="differential")
        except AssertionError as exc:
            report.violations.append(
                OracleViolation(
                    kind="engine",
                    phase="engine",
                    message=str(exc),
                    details={"level": level},
                )
            )


class _Tracer:
    """Per heap address, every (stripped) AP that touched it."""

    def __init__(self) -> None:
        self.by_address: Dict[int, set] = {}

    def _note(self, instr, addr):
        if instr.ap is not None:
            self.by_address.setdefault(addr, set()).add(strip_index(instr.ap))

    def on_load(self, instr, addr, value, activation):
        self._note(instr, addr)

    def on_store(self, instr, addr, value, activation):
        self._note(instr, addr)


def _run(ir: ProgramIR, max_steps: int, tracer: Optional[_Tracer] = None) -> Ending:
    """How one run ends; other resource limits than the step budget
    (a deadline, recursion) propagate."""
    interp = Interpreter(ir, tracer=tracer, max_steps=max_steps)
    try:
        interp.run()
        ending, message = "end", ""
    except M3RuntimeError as exc:
        ending, message = "trap", str(exc)
    except ResourceLimitError as exc:
        if exc.kind != "steps":
            raise
        ending, message = "budget", ""
    return ending, message, interp.stats.output_text()


def _run_traced(
    report: OracleReport, base_ir: ProgramIR, max_steps: int
) -> Tuple[Dict[int, set], Optional[Ending]]:
    tracer = _Tracer()
    base: Optional[Ending] = None
    try:
        base = _run(base_ir, max_steps, tracer)
    except ResourceLimitError:
        pass  # no ending to compare the builds with
    # Traps and limits truncate the trace; the prefix that did execute
    # is real behaviour and still constrains the analyses.
    report.ran = base is not None and base[0] == "end"
    report.trapped = not report.ran
    return tracer.by_address, base


def _check_optimized(
    report: OracleReport, program: Program, base_ir: ProgramIR, base: Ending,
    max_steps: int,
) -> None:
    """Each distinct figure build ends as base does (module docstring)."""
    seen = {format_program(base_ir)}
    for config in FIGURE_CONFIGS:
        build = program.pipeline.build(**config)
        text = format_program(build.program)
        if text in seen:
            continue
        seen.add(text)
        details = {"config": repr(sorted(config.items()))}
        try:
            ending = _run(build.program, max_steps)
        except ResourceLimitError:
            raise
        except Exception as exc:  # a miscompile may crash the interpreter
            ending = ("error", "{}: {}".format(type(exc).__name__, exc), "")
            details["traceback"] = traceback.format_exc()
        if ending != base:
            details.update(output=ending[2], base_output=base[2])
            report.violations.append(
                OracleViolation(
                    kind="optimized",
                    phase="optimized",
                    message="{} build: {} where base: {}".format(
                        build.label, _show(ending), _show(base)),
                    details=details,
                )
            )


def _show(ending: Ending) -> str:
    kind, message, output = ending
    if kind == "trap":
        return "trap {!r} after {} output chars".format(message, len(output))
    if kind == "budget":
        return "step budget hit after {} output chars".format(len(output))
    if kind == "error":
        return "interpreter error {!r}".format(message)
    return "output {!r}".format(output[-60:])


def _check_dynamic(
    report: OracleReport, analyses: Dict[Tuple[str, bool], object], trace: Dict[int, set]
) -> None:
    """Every dynamically co-located AP pair must be a may-alias."""
    for addr, aps in trace.items():
        if len(aps) < 2:
            continue
        ordered = sorted(aps, key=str)
        for i, p in enumerate(ordered):
            for q in ordered[i + 1 :]:
                report.trace_pairs += 1
                for (level, open_world), analysis in analyses.items():
                    if not analysis.may_alias_canonical(p, q):
                        report.violations.append(
                            OracleViolation(
                                kind="dynamic-soundness",
                                phase="dynamic",
                                message=(
                                    "{} and {} hit address {:#x} but {}{} "
                                    "says no-alias".format(
                                        p,
                                        q,
                                        addr,
                                        level,
                                        " (open)" if open_world else "",
                                    )
                                ),
                                details={
                                    "level": level,
                                    "open_world": str(open_world),
                                    "p": str(p),
                                    "q": str(q),
                                },
                            )
                        )


def _check_cache(
    report: OracleReport, analyses: Dict[Tuple[str, bool], object], paths: List[AccessPath]
) -> None:
    """cache_clear() must not change answers; stats must stay coherent."""
    sample = paths[:24]
    for (level, open_world), analysis in analyses.items():
        before = {
            (p.uid, q.uid): analysis.may_alias_canonical(p, q)
            for p in sample
            for q in sample
        }
        analysis.cache_clear()
        stats = analysis.cache_stats()
        if stats["hits"] or stats["misses"] or stats["size"]:
            report.violations.append(
                OracleViolation(
                    kind="cache",
                    phase="cache",
                    message="cache_clear left non-zero stats: {}".format(stats),
                    details={"level": level},
                )
            )
        changed = [
            key
            for key, answer in before.items()
            if analysis.may_alias_canonical(*_by_uid(sample, key)) != answer
        ]
        if changed:
            report.violations.append(
                OracleViolation(
                    kind="cache",
                    phase="cache",
                    message="{} answers changed after cache_clear on {}{}".format(
                        len(changed), level, " (open)" if open_world else ""
                    ),
                    details={"level": level, "open_world": str(open_world)},
                )
            )
        stats = analysis.cache_stats()
        if stats["size"] > stats["misses"]:
            report.violations.append(
                OracleViolation(
                    kind="cache",
                    phase="cache",
                    message="cache size {} exceeds miss count {}".format(
                        stats["size"], stats["misses"]
                    ),
                    details={"level": level},
                )
            )


def _by_uid(sample: List[AccessPath], key: Tuple[int, int]) -> Tuple[AccessPath, AccessPath]:
    by = {p.uid: p for p in sample}
    return by[key[0]], by[key[1]]
