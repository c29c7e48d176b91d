"""Fault-isolating batch runner behind ``repro fuzz``.

Generates *count* programs (seeds ``base_seed .. base_seed+count-1``),
runs the full oracle battery over each inside its own bulkhead, and
aggregates a machine-readable report:

* one :class:`FailureRecord` per failing seed — phase, violation kind,
  message, a stable traceback digest for de-duplication, and (when an
  output directory is given) the path of a crash bundle holding the
  original program, a delta-debugged minimal reproducer and the JSON
  oracle report;
* a :class:`FuzzReport` with counts and wall-clock, serialised to
  ``fuzz-report.json`` in the output directory.

One seed crashing, hanging or violating an oracle never aborts the rest
of the batch: each program runs under a wall-clock guard
(:func:`~repro.qa.guards.guarded`) and an interpreter step budget, and
every exception except ``KeyboardInterrupt``/``SystemExit`` is recorded
and skipped past.

``jobs > 1`` fans the seed range out over a ``multiprocessing`` pool in
contiguous chunks.  Each chunk keeps the same per-seed bulkheads; crash
bundles are written by the workers (bundle paths embed the seed, so
writers never collide) and the merged report is deterministic — chunk
results are combined in seed order, so the same seeds produce the same
report regardless of ``jobs`` (only ``duration`` and the progress
callback, which needs an in-process caller, differ).
"""

import hashlib
import json
import math
import multiprocessing
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional, Tuple

from repro.obs import core as obs
from repro.qa.generator import GenConfig, GeneratedProgram, generate_program
from repro.qa.guards import (MAX_STEPS, PER_PROGRAM_SECONDS, default_jobs,
                             guarded)
from repro.qa.oracles import OracleReport, check_program
from repro.qa.reduce import reduce_program, write_crash_bundle

__all__ = ["FailureRecord", "FuzzReport", "run_fuzz", "default_jobs"]


@dataclass
class FailureRecord:
    """One failing seed, with enough to triage and reproduce."""

    seed: int
    name: str
    phase: str      # oracle phase, or "harness" for runner-level crashes
    kind: str       # violation kind, or exception class name
    message: str
    digest: str     # stable hash of (phase, kind, message shape)
    bundle: Optional[str] = None   # crash-bundle directory, if written
    reduced_statements: Optional[int] = None

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "name": self.name,
            "phase": self.phase,
            "kind": self.kind,
            "message": self.message,
            "digest": self.digest,
            "bundle": self.bundle,
            "reduced_statements": self.reduced_statements,
        }


@dataclass
class FuzzReport:
    """Aggregate outcome of one fuzzing batch."""

    base_seed: int
    count: int
    checked: int = 0
    ran_clean: int = 0      # interpreter reached END
    trapped: int = 0        # runtime trap or budget hit (tolerated)
    failures: List[FailureRecord] = field(default_factory=list)
    duration: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def distinct_digests(self) -> List[str]:
        seen: List[str] = []
        for f in self.failures:
            if f.digest not in seen:
                seen.append(f.digest)
        return seen

    def to_json(self) -> dict:
        return {
            "base_seed": self.base_seed,
            "count": self.count,
            "checked": self.checked,
            "ran_clean": self.ran_clean,
            "trapped": self.trapped,
            "ok": self.ok,
            "distinct_digests": self.distinct_digests(),
            "failures": [f.to_json() for f in self.failures],
            "duration_seconds": round(self.duration, 3),
        }


def failure_digest(phase: str, kind: str, message: str) -> str:
    """Stable 12-hex digest identifying one failure *shape*.

    Digits are masked out of the message so the same defect found at
    different seeds, addresses or line numbers dedupes to one digest.
    """
    shape = "".join("#" if ch.isdigit() else ch for ch in message)
    blob = "{}|{}|{}".format(phase, kind, shape).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def run_fuzz(
    count: int,
    base_seed: int = 0,
    out_dir: Optional[Path] = None,
    per_program_seconds: Optional[float] = PER_PROGRAM_SECONDS,
    max_steps: int = MAX_STEPS,
    reduce: bool = True,
    config: Optional[GenConfig] = None,
    progress: Optional[Callable[[int, OracleReport], None]] = None,
    jobs: Optional[int] = 1,
) -> FuzzReport:
    """Fuzz *count* seeded programs; never aborts on a single failure.

    ``jobs=1`` (the default) keeps the exact in-process path (required
    for the ``progress`` callback); ``jobs=None`` uses
    :func:`default_jobs`, i.e. ``os.cpu_count()``.
    """
    if jobs is None:
        jobs = default_jobs()
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    started = time.monotonic()
    if jobs == 1 or count <= 1:
        report = _fuzz_chunk(
            count, base_seed, out_dir, per_program_seconds, max_steps,
            reduce, config, progress,
        )
    else:
        report = _fuzz_parallel(
            count, base_seed, out_dir, per_program_seconds, max_steps,
            reduce, config, jobs,
        )
    report.duration = time.monotonic() - started
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "fuzz-report.json").write_text(
            json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n"
        )
    return report


def _fuzz_chunk(
    count: int,
    base_seed: int,
    out_dir: Optional[Path],
    per_program_seconds: Optional[float],
    max_steps: int,
    reduce: bool,
    config: Optional[GenConfig],
    progress: Optional[Callable[[int, OracleReport], None]] = None,
) -> FuzzReport:
    """One contiguous seed range, in-process (the pre-``jobs`` body)."""
    report = FuzzReport(base_seed=base_seed, count=count)
    with obs.span("fuzz.batch", base_seed=base_seed, count=count):
        for i in range(count):
            seed = base_seed + i
            with obs.span("fuzz.seed", seed=seed) as seed_span:
                record = _check_one(
                    seed, out_dir, per_program_seconds, max_steps, reduce,
                    config, report, progress,
                )
                if record is not None:
                    seed_span.annotate(failure=record.kind)
                    report.failures.append(record)
    return report


def _fuzz_chunk_task(task: Tuple) -> FuzzReport:
    """Pool entry point (top-level so it pickles); no progress callback."""
    count, base_seed, out_dir, per_program_seconds, max_steps, reduce, config = task
    return _fuzz_chunk(
        count, base_seed, Path(out_dir) if out_dir else None,
        per_program_seconds, max_steps, reduce, config,
    )


def _fuzz_parallel(
    count: int,
    base_seed: int,
    out_dir: Optional[Path],
    per_program_seconds: Optional[float],
    max_steps: int,
    reduce: bool,
    config: Optional[GenConfig],
    jobs: int,
) -> FuzzReport:
    """Fan contiguous seed chunks over a pool and merge by seed order."""
    chunk = math.ceil(count / jobs)
    tasks = []
    lo = 0
    while lo < count:
        n = min(chunk, count - lo)
        tasks.append((n, base_seed + lo, str(out_dir) if out_dir else None,
                      per_program_seconds, max_steps, reduce, config))
        lo += n
    with obs.span("fuzz.batch", base_seed=base_seed, count=count, jobs=jobs):
        with multiprocessing.Pool(processes=min(jobs, len(tasks))) as pool:
            chunks = list(pool.imap_unordered(_fuzz_chunk_task, tasks))
    report = FuzzReport(base_seed=base_seed, count=count)
    for part in sorted(chunks, key=lambda r: r.base_seed):
        report.checked += part.checked
        report.ran_clean += part.ran_clean
        report.trapped += part.trapped
        report.failures.extend(part.failures)
    report.failures.sort(key=lambda f: f.seed)
    return report


def _check_one(
    seed: int,
    out_dir: Optional[Path],
    per_program_seconds: Optional[float],
    max_steps: int,
    reduce: bool,
    config: Optional[GenConfig],
    report: FuzzReport,
    progress: Optional[Callable[[int, OracleReport], None]],
) -> Optional[FailureRecord]:
    """One seed inside its bulkhead; a FailureRecord if it failed."""
    program: Optional[GeneratedProgram] = None
    try:
        program = generate_program(seed, config)
        with guarded(per_program_seconds, "fuzz seed {}".format(seed)):
            oracle = check_program(program, seed=seed, max_steps=max_steps)
    except (KeyboardInterrupt, SystemExit):
        raise
    except Exception as exc:  # bulkhead: even harness bugs only cost one seed
        return FailureRecord(
            seed=seed,
            name=program.name if program is not None else "Fuzz{}".format(seed),
            phase="harness",
            kind=type(exc).__name__,
            message=str(exc),
            digest=failure_digest("harness", type(exc).__name__, str(exc)),
        )
    report.checked += 1
    if oracle.ran:
        report.ran_clean += 1
    elif oracle.trapped:
        report.trapped += 1
    if progress is not None:
        progress(seed, oracle)
    if oracle.ok:
        return None

    first = oracle.violations[0]
    record = FailureRecord(
        seed=seed,
        name=oracle.name,
        phase=first.phase,
        kind=first.kind,
        message=first.message,
        digest=failure_digest(first.phase, first.kind, first.message),
    )
    if out_dir is not None:
        reduced = None
        if reduce:
            reduced = _reduce_failure(
                program, first.kind, per_program_seconds, max_steps
            )
        bundle = write_crash_bundle(Path(out_dir), program, reduced, oracle)
        record.bundle = str(bundle)
        if reduced is not None:
            record.reduced_statements = reduced.statement_count()
    return record


def _reduce_failure(
    program: GeneratedProgram,
    kind: str,
    per_program_seconds: Optional[float],
    max_steps: int,
) -> Optional[GeneratedProgram]:
    """Delta-debug *program* down to the same violation kind."""

    def still_fails(candidate: GeneratedProgram) -> bool:
        try:
            with guarded(per_program_seconds, "reduce"):
                oracle = check_program(candidate, max_steps=max_steps)
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception:
            return False
        return any(v.kind == kind for v in oracle.violations)

    try:
        return reduce_program(program, still_fails)
    except (KeyboardInterrupt, SystemExit):
        raise
    except Exception:
        return None  # the reducer must never lose the original evidence
