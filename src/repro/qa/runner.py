"""The batch runner: one shard pool behind ``repro fuzz`` and
``repro corpus run``.

A batch is a sequence of shards, and a shard yields generated programs.
:func:`run_shards` drives every shard through one bulkhead
(:func:`_process_shard`): ``jobs=1`` runs them in this process, in
order; ``jobs > 1`` fans them over a ``multiprocessing`` pool with a
hung/dead-worker watchdog (:func:`_run_sharded_pool`).  A *job* supplies
the rest — ``entries(shard)``, the program entries of one shard, and
``check(entry, outcome)``, which checks one of them:

* ``repro fuzz`` (:func:`run_fuzz`) cuts its seed range into contiguous
  in-memory shards (:class:`SeedShard`); checking a seed generates its
  program, runs the oracle battery and, on a violation, delta-debugs the
  program and writes a crash bundle;
* ``repro corpus run`` (:func:`repro.qa.corpus.run_corpus`) loads
  hash-checked shards from disk and counts Table 5 per program,
  optionally with the oracle battery.

Both jobs share one failure record, :class:`FailureRecord` (seed, name,
phase, kind, message, a digit-masked :func:`failure_digest` for
de-duplication and, for fuzz, the crash bundle and the reduced size),
and the bulkheads: a program that crashes, hangs past its wall-clock
guard or violates an oracle costs only itself, a shard that cannot be
read costs only itself, and only ``KeyboardInterrupt``/``SystemExit``
abort the batch.  Outcomes come back sorted by shard index, with each
pool worker's metric registry snapshot folded into this process's
registry in that order, so reports and ``--trace`` counters are the same
for any ``jobs`` apart from wall clock.
"""

import hashlib
import json
import math
import multiprocessing
import os
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from repro.obs import core as obs
from repro.obs import metrics
from repro.qa import chaos
from repro.qa.generator import GenConfig, GeneratedProgram, generate_program
from repro.qa.guards import (MAX_STEPS, PER_PROGRAM_SECONDS, default_jobs,
                             guarded)
from repro.qa.oracles import OracleReport, check_program
from repro.qa.reduce import reduce_program, write_crash_bundle

__all__ = ["FailureRecord", "FuzzReport", "SeedShard", "ShardOutcome",
           "run_fuzz", "run_shards", "default_jobs"]

#: Fuzz shards per worker: a run's seeds are cut into ``jobs *
#: SHARDS_PER_JOB`` contiguous shards of equal size (the last shorter).
#: Four per worker measured no faster on ``make fuzz-smoke``.
SHARDS_PER_JOB = 1


def failure_digest(phase: str, kind: str, message: str) -> str:
    """Stable 12-hex digest identifying one failure *shape*.

    Digits are masked out of the message so the same defect found at
    different seeds, addresses or line numbers dedupes to one digest.
    """
    shape = "".join("#" if ch.isdigit() else ch for ch in message)
    blob = "{}|{}|{}".format(phase, kind, shape).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


@dataclass
class FailureRecord:
    """One failing program (or shard), with enough to triage and
    reproduce."""

    seed: Optional[int]  # None when a whole shard failed
    name: str
    phase: str      # oracle phase; "harness" when checking the program
    #                 raised, "shard" when reading its shard did
    kind: str       # violation kind, or exception class name
    message: str
    digest: str = ""  # failure_digest(phase, kind, message) unless given
    bundle: Optional[str] = None   # crash-bundle directory, if written
    reduced_statements: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.digest:
            self.digest = failure_digest(self.phase, self.kind, self.message)

    @classmethod
    def crash(cls, seed: Optional[int], name: str, phase: str,
              exc: Exception) -> "FailureRecord":
        return cls(seed, name, phase, type(exc).__name__, str(exc))

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class ShardOutcome:
    """Result of one shard's bulkhead (always produced, even on crash)."""

    index: int
    file: str
    programs: int = 0
    compiled: int = 0
    references: int = 0
    local_pairs: int = 0
    global_pairs: int = 0
    seconds: float = 0.0
    failures: List[FailureRecord] = field(default_factory=list)
    #: ``(seed, run, ok)`` per oracle-checked program, in order; *run*
    #: is ``"ran"``, ``"trap"`` or ``"-"``.
    statuses: List[Tuple[int, str, bool]] = field(default_factory=list)
    counters: Optional[List[dict]] = None  # worker registry snapshot

    @property
    def oracle_checked(self) -> int:
        return len(self.statuses)

    def note_oracle(self, seed: int,
                    oracle: OracleReport) -> Optional[FailureRecord]:
        """Record one program's oracle outcome; its first violation, if
        any, becomes a failure, which is returned."""
        run = "ran" if oracle.ran else ("trap" if oracle.trapped else "-")
        self.statuses.append((seed, run, oracle.ok))
        if oracle.ok:
            return None
        first = oracle.violations[0]
        record = FailureRecord(seed, oracle.name, first.phase, first.kind,
                               first.message)
        self.failures.append(record)
        return record

    def to_json(self) -> dict:
        data = {key: getattr(self, key) for key in (
            "index", "file", "programs", "compiled", "oracle_checked",
            "references", "local_pairs", "global_pairs")}
        data["seconds"] = round(self.seconds, 3)
        data["failures"] = [f.to_json() for f in self.failures]
        return data


# ----------------------------------------------------------------------
# Shards, in process or over a pool


def _process_shard(job, shard, attempt: int,
                   in_worker: bool) -> ShardOutcome:
    """One shard inside its bulkhead.

    Runs in a pool worker for ``jobs>1`` (where the inherited registry
    is reset so the returned snapshot is exactly this shard's counters)
    or inline for ``jobs=1`` (where counters land in the parent registry
    directly and no snapshot is shipped).  ``attempt`` is the watchdog's
    retry count, so chaos rules can target "first attempt only"
    (transient) vs "every attempt" (poison).

    A forked worker also checks ``REPRO_TRACEPARENT``: when the parent
    exported a *sampled* trace context, the shard runs inside its own
    collecting trace scope parented under the parent's span, and the
    worker flushes a ``corpus-worker`` record to the trace store named
    by ``REPRO_TRACE_STORE`` — this is what lets ``repro trace show``
    reconstruct client → daemon → forked-worker as one tree
    (DESIGN.md §6k).  Pool workers re-mint their process token after
    the fork, so records from different workers never collide.
    """
    from repro.obs import sampler as tracing

    if not in_worker:
        return _run_shard(job, shard, attempt, in_worker)
    obs.reset_inherited_trace_state()
    ctx = tracing.context_from_env()
    if ctx is None or not ctx.sampled:
        return _run_shard(job, shard, attempt, in_worker)
    scope = obs.trace_scope(ctx.trace_id, collect=True,
                            remote_parent=(ctx.proc, ctx.span_id))
    with scope:
        with obs.span("corpus.shard.worker", shard=shard.index,
                      attempt=attempt):
            outcome = _run_shard(job, shard, attempt, in_worker)
    store_dir = os.environ.get(tracing.TRACE_STORE_ENV)
    if store_dir:
        from repro.obs.tracestore import TraceStore, make_record

        # append() never raises; a torn or failing store must not cost
        # the shard its outcome.
        TraceStore(store_dir).append(make_record(
            scope, origin="corpus-worker", op="corpus.shard",
            ms=outcome.seconds * 1000.0,
            ok=not outcome.failures, unit=outcome.file))
    return outcome


def _run_shard(job, shard, attempt: int, in_worker: bool) -> ShardOutcome:
    outcome = ShardOutcome(index=shard.index, file=shard.file)
    started = time.perf_counter()
    if in_worker:
        metrics.registry().reset()
    # Forked workers inherit the armed chaos plan.  The kill point is
    # gated off the in-process path — os._exit there would take the
    # parent process down, which is the one thing chaos must never do.
    chaos.fire("corpus.shard_hang", shard=shard.index, attempt=attempt)
    if in_worker:
        chaos.fire("corpus.worker_kill", shard=shard.index,
                   attempt=attempt)
    try:
        for entry in job.entries(shard):
            outcome.programs += 1
            try:
                job.check(entry, outcome)
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception as exc:  # per-program bulkhead
                outcome.failures.append(FailureRecord.crash(
                    entry.get("seed"), entry.get("name"), "harness", exc))
    except (KeyboardInterrupt, SystemExit):
        raise
    except Exception as exc:  # per-shard bulkhead
        outcome.failures.append(
            FailureRecord.crash(None, shard.file, "shard", exc))
    outcome.seconds = time.perf_counter() - started
    if in_worker:
        outcome.counters = metrics.registry().snapshot()
    return outcome


def _merge_worker_counters(snapshot: List[dict]) -> None:
    """Fold one worker registry snapshot into the parent registry.

    Counters accumulate into the shared child for the same series, and
    a series the worker holds at zero is still registered, so every
    ``jobs`` records the same set of series; gauges adopt the worker's
    last value; histograms are summarised by their event count under a
    ``.events`` counter (bucket-level merge is not worth carrying across
    the pipe).
    """
    registry = metrics.registry()
    for entry in snapshot:
        labels = entry["labels"]
        if entry["kind"] == "counter":
            counter = registry.counter(entry["name"], **labels)
            if entry["value"]:
                counter.inc(entry["value"])
        elif entry["kind"] == "gauge":
            registry.gauge(entry["name"], **labels).set(entry["value"])
        elif entry["kind"] == "histogram" and entry.get("count"):
            registry.counter(entry["name"] + ".events", **labels).inc(
                entry["count"])


#: Watchdog poll interval, seconds.
_POOL_POLL_SECONDS = 0.02


def _run_sharded_pool(
    tasks,
    jobs: int,
    shard_timeout_seconds: Optional[float],
    max_shard_retries: int,
) -> Tuple[List[ShardOutcome], List[dict]]:
    """Fan shards over a pool with a hung/dead-worker watchdog.

    ``imap_unordered`` cannot survive a worker death: a killed worker's
    task simply never produces a result and the iterator blocks
    forever.  This scheduler submits via ``apply_async`` in a bounded
    window (``jobs * 2`` in flight) and polls each pending handle itself, so
    *hang* and *death* collapse into one observable — the handle is not
    ready within ``shard_timeout_seconds``.  Timed-out shards are
    resubmitted up to ``max_shard_retries`` times (a transient kill
    heals; a late straggler result from the abandoned attempt is
    dropped, never double-counted), then **quarantined**: recorded with
    their attempt count and reported in the run JSON rather than
    silently missing.  ``Pool.__exit__`` terminates the pool, which
    also reaps workers still stuck in a hung shard.
    """
    registry = metrics.registry()
    outcomes: List[ShardOutcome] = []
    quarantined: List[dict] = []
    window = max(jobs * 2, 2)
    pending: List[dict] = []
    tasks_iter = iter(tasks)
    exhausted = False
    # fork keeps the workers cheap; the registry reset inside
    # _run_shard makes the inherited state irrelevant.
    with multiprocessing.Pool(processes=jobs) as pool:

        def submit(task: Tuple) -> None:
            pending.append({
                "handle": pool.apply_async(_process_shard, task + (True,)),
                "task": task,
                "started": time.monotonic(),
            })

        while pending or not exhausted:
            while not exhausted and len(pending) < window:
                try:
                    submit(next(tasks_iter))
                except StopIteration:
                    exhausted = True
            if not pending:
                continue
            progressed = False
            now = time.monotonic()
            for entry in list(pending):
                if entry["handle"].ready():
                    pending.remove(entry)
                    progressed = True
                    outcomes.append(entry["handle"].get())
                elif (shard_timeout_seconds is not None
                      and now - entry["started"] > shard_timeout_seconds):
                    pending.remove(entry)
                    progressed = True
                    job, shard, attempt = entry["task"]
                    if attempt < max_shard_retries:
                        registry.counter("corpus.shard.retries").inc()
                        submit((job, shard, attempt + 1))
                    else:
                        registry.counter("corpus.shard.quarantined").inc()
                        quarantined.append({
                            "index": shard.index,
                            "file": shard.file,
                            "attempts": attempt + 1,
                            "reason": "shard exceeded {}s timeout on every "
                                      "attempt (hung or killed worker)"
                                      .format(shard_timeout_seconds),
                        })
            if not progressed:
                time.sleep(_POOL_POLL_SECONDS)
    return outcomes, quarantined


def run_shards(
    job,
    shards: Sequence,
    jobs: int,
    shard_timeout_seconds: Optional[float] = None,
    max_shard_retries: int = 1,
) -> Tuple[List[ShardOutcome], List[dict]]:
    """Every shard through its bulkhead, ``jobs`` at a time.

    A shard has an ``index`` and a ``file`` (its name in reports); *job*
    gives its entries and checks each one (see the module docstring).
    Returns the outcomes sorted by shard index, with every pool worker's
    counters merged into this process's registry, and the shards the
    watchdog quarantined.  ``shard_timeout_seconds`` arms the watchdog
    (``jobs > 1`` only): a shard whose worker hangs or dies is retried
    up to ``max_shard_retries`` times, then quarantined.
    """
    tasks = ((job, shard, 0) for shard in shards)
    if jobs == 1 or not shards:
        outcomes = [_process_shard(*task, False) for task in tasks]
        quarantined = []
    else:
        outcomes, quarantined = _run_sharded_pool(
            tasks, min(jobs, len(shards)), shard_timeout_seconds,
            max_shard_retries)
    outcomes.sort(key=lambda o: o.index)  # deterministic merge order
    quarantined.sort(key=lambda q: q["index"])
    for outcome in outcomes:
        if outcome.counters is not None:
            _merge_worker_counters(outcome.counters)
            outcome.counters = None
    return outcomes, quarantined


# ----------------------------------------------------------------------
# repro fuzz


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
        return list(dict.fromkeys(f.digest for f in self.failures))

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


@dataclass(frozen=True)
class SeedShard:
    """One in-memory fuzz shard: ``programs`` seeds from ``seed`` on."""

    index: int
    seed: int
    programs: int

    @property
    def file(self) -> str:
        """The shard's name in reports (no file backs it)."""
        return "seeds {}..{}".format(self.seed,
                                     self.seed + self.programs - 1)


def _seed_shards(count: int, base_seed: int, jobs: int) -> List[SeedShard]:
    size = max(1, math.ceil(count / (jobs * SHARDS_PER_JOB)))
    return [SeedShard(index, base_seed + lo, min(size, count - lo))
            for index, lo in enumerate(range(0, count, size))]


@dataclass
class _FuzzJob:
    """How ``repro fuzz`` fills and checks a shard (pickled to workers)."""

    out_dir: Optional[str]
    per_program_seconds: Optional[float]
    max_steps: int
    reduce: bool
    config: Optional[GenConfig]

    def entries(self, shard: SeedShard) -> Iterator[dict]:
        for seed in range(shard.seed, shard.seed + shard.programs):
            yield {"seed": seed, "name": "Fuzz{}".format(seed)}

    def check(self, entry: dict, outcome: ShardOutcome) -> None:
        """One seed: generate, run the oracles, and reduce and bundle a
        failure when there is an output directory."""
        seed = entry["seed"]
        with obs.span("fuzz.seed", seed=seed) as seed_span:
            program = generate_program(seed, self.config)
            with guarded(self.per_program_seconds,
                         "fuzz seed {}".format(seed)):
                oracle = check_program(program, seed=seed,
                                       max_steps=self.max_steps)
            record = outcome.note_oracle(seed, oracle)
            if record is None:
                return
            seed_span.annotate(failure=record.kind)
            if self.out_dir is None:
                return
            reduced = None
            if self.reduce:
                reduced = _reduce_failure(program, record.kind,
                                          self.per_program_seconds,
                                          self.max_steps)
            bundle = write_crash_bundle(Path(self.out_dir), program,
                                        reduced, oracle)
            record.bundle = str(bundle)
            if reduced is not None:
                record.reduced_statements = reduced.statement_count()


def run_fuzz(
    count: int,
    base_seed: int = 0,
    out_dir: Optional[Path] = None,
    per_program_seconds: Optional[float] = PER_PROGRAM_SECONDS,
    max_steps: int = MAX_STEPS,
    reduce: bool = True,
    config: Optional[GenConfig] = None,
    progress: Optional[Callable[[int, str, bool], None]] = None,
    jobs: Optional[int] = 1,
) -> FuzzReport:
    """Fuzz *count* seeded programs; never aborts on a single failure.

    Seeds ``base_seed .. base_seed+count-1`` are cut into contiguous
    :class:`SeedShard` s and run through :func:`run_shards`: in this
    process for ``jobs=1`` (the default), over :func:`default_jobs`
    workers for ``jobs=None``.  ``progress(seed, run, ok)`` is called
    once per checked seed, in seed order, with a
    :attr:`ShardOutcome.statuses` entry.
    """
    if jobs is None:
        jobs = default_jobs()
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    job = _FuzzJob(None if out_dir is None else str(out_dir),
                   per_program_seconds, max_steps, reduce, config)
    report = FuzzReport(base_seed=base_seed, count=count)
    started = time.monotonic()
    with obs.span("fuzz.batch", base_seed=base_seed, count=count, jobs=jobs):
        outcomes, _ = run_shards(job, _seed_shards(count, base_seed, jobs),
                                 jobs)
    for outcome in outcomes:
        for seed, run, ok in outcome.statuses:
            report.checked += 1
            report.ran_clean += run == "ran"
            report.trapped += run == "trap"
            if progress is not None:
                progress(seed, run, ok)
        report.failures.extend(outcome.failures)
    report.duration = time.monotonic() - started
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "fuzz-report.json").write_text(
            json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n"
        )
    return report


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
