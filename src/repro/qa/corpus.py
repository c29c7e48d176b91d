"""Sharded corpus pipeline: ``repro corpus gen / verify / run``.

``repro fuzz`` exercises the oracles one seeded program at a time; the
corpus pipeline scales the same deterministic generator to 10³–10⁵
MiniM3 programs materialised on disk and drives batch work over them:

* :func:`generate_corpus` renders programs for seeds ``seed ..
  seed+count-1`` (size/shape dials come from :class:`CorpusSpec`, a
  superset of :class:`~repro.qa.generator.GenConfig`) and writes them in
  **content-hashed shards**.  A corpus is one ``manifest.json`` — the
  spec and one ``{programs, sha256}`` entry per shard, whose index is
  its position — plus the shard files, each named from its index and
  the SHA-256 of its program payload (:func:`shard_file`).  A changed
  hash, a missing shard or a renamed one is caught before any batch
  consumes it (:func:`verify_corpus`), as a :class:`CorpusError`.
* :func:`run_corpus` is the sharded driver: shards fan out lazily over
  a ``multiprocessing`` pool (``jobs=1`` stays in-process and exactly
  deterministic), each shard runs inside its own
  **fault bulkhead** —
  one broken shard or program is reported without sinking the batch —
  and per-shard results merge deterministically by shard index.  Worker
  registries are snapshotted and folded back into the parent's
  :mod:`repro.obs.metrics` registry, so ``aliaspairs.*`` / cache
  counters aggregate across processes, and every shard contributes to
  the ``corpus.shard.programs`` / ``corpus.shard.pairs`` /
  ``corpus.shard.seconds`` counter family.  ``repro bench gate
  --corpus`` times a single-process run inside its measured segment.

Every program entry in a shard carries its generating seed *and* its
rendered source hash; because generation is deterministic, workers can
cross-check the stored source against a regeneration of the seed, which
the ``--oracles`` mode uses before trusting a program.
"""

import hashlib
import json
import multiprocessing
import os
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple

from repro.analysis.alias_pairs import DEFAULT_ENGINE
from repro.obs import core as obs
from repro.obs import metrics
from repro.qa import chaos
from repro.qa.generator import GenConfig, generate_program
from repro.qa.guards import (MAX_STEPS, PER_PROGRAM_SECONDS, default_jobs,
                             guarded)

__all__ = [
    "CorpusSpec",
    "CorpusManifest",
    "CorpusError",
    "ShardInfo",
    "ShardOutcome",
    "CorpusRunReport",
    "shard_file",
    "generate_corpus",
    "load_manifest",
    "load_manifest_header",
    "iter_shards",
    "load_shard",
    "verify_corpus",
    "run_corpus",
]

#: Bumped whenever the manifest/shard layout changes.
#: v3: ``manifest.json`` lists every shard as ``{programs, sha256}`` by
#: position and shard file names derive from ``(index, sha256)``; v2's
#: sidecar file of shard lines is gone, and no older layout loads.
CORPUS_SCHEMA_VERSION = 3

MANIFEST_NAME = "manifest.json"


class CorpusError(ValueError):
    """A corpus on disk that does not match its manifest: a missing,
    unreadable or changed shard, or a manifest that is not one."""


def shard_file(index: int, sha256: str) -> str:
    """The file name of shard *index* whose payload hashes to *sha256*."""
    return "shard-{:04d}-{}.json".format(index, sha256[:12])


# ----------------------------------------------------------------------
# Spec and manifest


@dataclass(frozen=True)
class CorpusSpec:
    """Seeded recipe for one corpus: how many programs, what shapes.

    The shape dials mirror :class:`~repro.qa.generator.GenConfig`; the
    pipeline dials (``seed``, ``count``, ``shard_size``) are its own.
    A spec fully determines the corpus bytes — same spec, same shards,
    same hashes.
    """

    seed: int = 0
    count: int = 1000
    shard_size: int = 100
    max_object_types: int = 4
    max_ref_vars: int = 4
    max_int_vars: int = 3
    max_procs: int = 3
    max_stmts: int = 22
    max_depth: int = 2
    allow_methods: bool = True
    allow_nil: bool = True

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError("corpus count must be >= 1")
        if self.shard_size < 1:
            raise ValueError("corpus shard_size must be >= 1")

    def gen_config(self) -> GenConfig:
        return GenConfig(
            max_object_types=self.max_object_types,
            max_ref_vars=self.max_ref_vars,
            max_int_vars=self.max_int_vars,
            max_procs=self.max_procs,
            max_stmts=self.max_stmts,
            max_depth=self.max_depth,
            allow_methods=self.allow_methods,
            allow_nil=self.allow_nil,
        )

    def n_shards(self) -> int:
        return (self.count + self.shard_size - 1) // self.shard_size

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, obj: dict) -> "CorpusSpec":
        known = {f: obj[f] for f in cls.__dataclass_fields__ if f in obj}
        return cls(**known)


@dataclass(frozen=True)
class ShardInfo:
    """One shard as the manifest records it."""

    index: int
    programs: int
    sha256: str

    @property
    def file(self) -> str:
        return shard_file(self.index, self.sha256)


@dataclass(frozen=True)
class CorpusManifest:
    """The spec plus every shard's info, as ``manifest.json`` holds them."""

    spec: CorpusSpec
    shards: Tuple[ShardInfo, ...]

    @property
    def n_programs(self) -> int:
        return sum(s.programs for s in self.shards)

    def to_json(self) -> dict:
        """The ``manifest.json`` payload."""
        return {
            "schema": CORPUS_SCHEMA_VERSION,
            "kind": "corpus_manifest",
            "spec": self.spec.to_json(),
            "shards": [{"programs": s.programs, "sha256": s.sha256}
                       for s in self.shards],
        }


def _payload_hash(programs: List[dict]) -> str:
    blob = json.dumps(programs, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


# ----------------------------------------------------------------------
# Generation


def generate_corpus(
    spec: CorpusSpec,
    out_dir: Path,
    progress: Optional[Callable[[int, int], None]] = None,
) -> CorpusManifest:
    """Render the corpus *spec* describes into ``out_dir``.

    Writes one :func:`shard_file` per :attr:`CorpusSpec.shard_size`
    programs plus ``manifest.json``; returns the manifest.
    ``progress`` (if given) is called with ``(shards_done, n_shards)``.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    config = spec.gen_config()
    shards: List[ShardInfo] = []
    n_shards = spec.n_shards()
    with obs.span("corpus.gen", count=spec.count, shards=n_shards):
        for shard_index in range(n_shards):
            lo = shard_index * spec.shard_size
            hi = min(lo + spec.shard_size, spec.count)
            programs: List[dict] = []
            for i in range(lo, hi):
                seed = spec.seed + i
                generated = generate_program(seed, config)
                source = generated.render()
                programs.append({
                    "seed": seed,
                    "name": generated.name,
                    "sha256": hashlib.sha256(source.encode()).hexdigest(),
                    "source": source,
                })
            info = ShardInfo(index=shard_index, programs=len(programs),
                             sha256=_payload_hash(programs))
            shard_obj = {
                "schema": CORPUS_SCHEMA_VERSION,
                "kind": "corpus_shard",
                "programs": programs,
            }
            (out_dir / info.file).write_text(
                json.dumps(shard_obj, sort_keys=True) + "\n")
            shards.append(info)
            if progress is not None:
                progress(shard_index + 1, n_shards)
    manifest = CorpusManifest(spec=spec, shards=tuple(shards))
    (out_dir / MANIFEST_NAME).write_text(
        json.dumps(manifest.to_json(), indent=2, sort_keys=True) + "\n")
    metrics.registry().counter("corpus.gen.programs").inc(spec.count)
    return manifest


# ----------------------------------------------------------------------
# Loading and verification


def _read_json(path: Path) -> object:
    """*path* decoded, or :class:`CorpusError` when missing or not JSON."""
    try:
        return json.loads(path.read_text())
    except OSError as err:
        raise CorpusError("{}: cannot read: {}".format(
            path, err.strerror or err))
    except json.JSONDecodeError as err:
        raise CorpusError("{}: not JSON: {}".format(path, err))


def _shard_info(path: Path, index: int, entry: object) -> ShardInfo:
    """One manifest shard entry, checked field by field."""
    programs = entry.get("programs") if isinstance(entry, dict) else None
    sha256 = entry.get("sha256") if isinstance(entry, dict) else None
    if not (isinstance(programs, int) and not isinstance(programs, bool)
            and programs >= 0 and isinstance(sha256, str)
            and len(sha256) == 64
            and all(c in "0123456789abcdef" for c in sha256)):
        raise CorpusError("{}: shard {} needs an int 'programs' and a "
                          "64-hex 'sha256', got {!r}".format(
                              path, index, entry))
    return ShardInfo(index=index, programs=programs, sha256=sha256)


def load_manifest(corpus_dir: Path) -> CorpusManifest:
    """Parse and check ``manifest.json``; :class:`CorpusError` unless it
    is a corpus manifest of :data:`CORPUS_SCHEMA_VERSION`."""
    path = Path(corpus_dir) / MANIFEST_NAME
    obj = _read_json(path)
    if not isinstance(obj, dict) or obj.get("kind") != "corpus_manifest":
        raise CorpusError("{}: not a corpus manifest".format(path))
    if obj.get("schema") != CORPUS_SCHEMA_VERSION:
        raise CorpusError("{}: unknown schema version {!r}".format(
            path, obj.get("schema")))
    spec, shards = obj.get("spec"), obj.get("shards")
    if not isinstance(spec, dict) or not isinstance(shards, list):
        raise CorpusError("{}: needs a 'spec' object and a 'shards' "
                          "list".format(path))
    try:
        spec = CorpusSpec.from_json(spec)
    except (TypeError, ValueError) as err:
        raise CorpusError("{}: bad spec: {}".format(path, err))
    return CorpusManifest(spec=spec, shards=tuple(
        _shard_info(path, index, entry)
        for index, entry in enumerate(shards)))


#: The name ``benchmarks/e2e/corpus_run.py`` loads the manifest by.
load_manifest_header = load_manifest


def iter_shards(corpus_dir: Path,
                manifest: Optional[CorpusManifest] = None):
    """The shards of *manifest* (default: the corpus's own), in index
    order."""
    if manifest is None:
        manifest = load_manifest(corpus_dir)
    return iter(manifest.shards)


def load_shard(corpus_dir: Path, info: ShardInfo,
               verify: bool = True) -> List[dict]:
    """The program entries of one shard, hash-checked against the
    manifest unless ``verify=False``; :class:`CorpusError` when the
    shard is missing, malformed or changed."""
    path = Path(corpus_dir) / info.file
    obj = _read_json(path)
    programs = obj.get("programs") if isinstance(obj, dict) else None
    if not isinstance(programs, list):
        raise CorpusError("{}: malformed shard (no programs)".format(path))
    if verify:
        digest = _payload_hash(programs)
        if digest != info.sha256 or len(programs) != info.programs:
            raise CorpusError(
                "{}: content hash mismatch (manifest {}, got {})".format(
                    path, info.sha256[:12], digest[:12]))
    return programs


def verify_corpus(corpus_dir: Path) -> CorpusManifest:
    """Hash-check every shard against the manifest; returns it when ok
    and raises :class:`CorpusError` at the first mismatch."""
    manifest = load_manifest(corpus_dir)
    for info in manifest.shards:
        load_shard(corpus_dir, info, verify=True)
    return manifest


# ----------------------------------------------------------------------
# Sharded run driver


@dataclass
class _RunOptions:
    """Everything a shard worker needs (must stay picklable)."""

    corpus_dir: str
    analyses: Tuple[str, ...]
    engine: str
    oracles: bool
    per_program_seconds: Optional[float]
    max_steps: int
    in_process: bool  # jobs=1: keep parent registry/recorder untouched
    spec: Optional[dict] = None  # generator dials, for the oracle mode


@dataclass
class ShardOutcome:
    """Result of one shard's bulkhead (always produced, even on crash)."""

    index: int
    file: str
    programs: int = 0
    compiled: int = 0
    oracle_checked: int = 0
    references: int = 0
    local_pairs: int = 0
    global_pairs: int = 0
    seconds: float = 0.0
    failures: List[dict] = field(default_factory=list)
    counters: Optional[List[dict]] = None  # worker registry snapshot

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "file": self.file,
            "programs": self.programs,
            "compiled": self.compiled,
            "oracle_checked": self.oracle_checked,
            "references": self.references,
            "local_pairs": self.local_pairs,
            "global_pairs": self.global_pairs,
            "seconds": round(self.seconds, 3),
            "failures": self.failures,
        }


@dataclass
class CorpusRunReport:
    """Deterministic merge of every shard outcome, by shard index."""

    corpus_dir: str
    engine: str
    jobs: int
    analyses: Tuple[str, ...]
    shards: List[ShardOutcome] = field(default_factory=list)
    #: Shards the watchdog gave up on after bounded retries — reported,
    #: never silently dropped.  Entries: index/file/attempts/reason.
    quarantined: List[dict] = field(default_factory=list)
    duration: float = 0.0

    @property
    def programs(self) -> int:
        return sum(s.programs for s in self.shards)

    @property
    def compiled(self) -> int:
        return sum(s.compiled for s in self.shards)

    @property
    def references(self) -> int:
        return sum(s.references for s in self.shards)

    @property
    def local_pairs(self) -> int:
        return sum(s.local_pairs for s in self.shards)

    @property
    def global_pairs(self) -> int:
        return sum(s.global_pairs for s in self.shards)

    @property
    def failures(self) -> List[dict]:
        out: List[dict] = []
        for shard in self.shards:
            out.extend(shard.failures)
        return out

    @property
    def ok(self) -> bool:
        return not self.failures and not self.quarantined

    def throughput(self) -> float:
        """Programs per second of wall clock (the ledger's headline)."""
        if self.duration <= 0:
            return 0.0
        return self.programs / self.duration

    def to_json(self) -> dict:
        return {
            "corpus_dir": self.corpus_dir,
            "engine": self.engine,
            "jobs": self.jobs,
            "analyses": list(self.analyses),
            "programs": self.programs,
            "compiled": self.compiled,
            "references": self.references,
            "local_pairs": self.local_pairs,
            "global_pairs": self.global_pairs,
            "ok": self.ok,
            "failures": self.failures,
            "quarantined": self.quarantined,
            "duration_seconds": round(self.duration, 3),
            "programs_per_second": round(self.throughput(), 2),
            "shards": [s.to_json() for s in self.shards],
        }


def _count_program(entry: dict, options: _RunOptions,
                   outcome: ShardOutcome) -> None:
    """Table 5 (and optionally the oracle battery) for one program."""
    from repro import compile_program

    program = compile_program(entry["source"], entry["name"])
    outcome.compiled += 1
    for analysis_name in options.analyses:
        report = program.alias_pairs(analysis_name, engine=options.engine)
        outcome.references += report.references
        outcome.local_pairs += report.local_pairs
        outcome.global_pairs += report.global_pairs
    if options.oracles:
        from repro.qa.oracles import check_program

        # Determinism doubles as integrity: the recorded seed must
        # regenerate the stored bytes before the oracles vouch for it.
        if options.spec is not None:
            config = CorpusSpec.from_json(options.spec).gen_config()
            regenerated = generate_program(entry["seed"], config).render()
            digest = hashlib.sha256(regenerated.encode()).hexdigest()
            if digest != entry["sha256"]:
                raise ValueError(
                    "seed {} does not regenerate the stored program {}"
                    .format(entry["seed"], entry["name"]))
        oracle = check_program(entry["source"], name=entry["name"],
                               seed=entry["seed"], max_steps=options.max_steps)
        outcome.oracle_checked += 1
        if not oracle.ok:
            first = oracle.violations[0]
            outcome.failures.append({
                "seed": entry["seed"],
                "name": entry["name"],
                "phase": first.phase,
                "error": first.kind,
                "message": first.message,
            })


def _process_shard(task: Tuple) -> ShardOutcome:
    """Worker entry point: one shard inside its bulkhead.

    Runs in a pool process for ``jobs>1`` (where the inherited registry
    is reset so the returned snapshot is exactly this shard's counters)
    or inline for ``jobs=1`` (where counters land in the parent registry
    directly and no snapshot is shipped).  The task tuple optionally
    carries the watchdog's retry ``attempt`` so chaos rules can target
    "first attempt only" (transient) vs "every attempt" (poison).

    A forked worker also checks ``REPRO_TRACEPARENT``: when the driver
    exported a *sampled* trace context, the shard runs inside its own
    collecting trace scope parented under the driver's span, and the
    worker flushes a ``corpus-worker`` record to the trace store named
    by ``REPRO_TRACE_STORE`` — this is what lets ``repro trace show``
    reconstruct client → daemon → forked-worker as one tree
    (DESIGN.md §6k).  Pool workers re-mint their process token after
    the fork, so records from different workers never collide.
    """
    from repro.obs import sampler as tracing

    in_process = task[1].in_process
    if not in_process:
        obs.reset_inherited_trace_state()
    ctx = None if in_process else tracing.context_from_env()
    if ctx is None or not ctx.sampled:
        return _process_shard_inner(task)
    scope = obs.trace_scope(ctx.trace_id, collect=True,
                            remote_parent=(ctx.proc, ctx.span_id))
    with scope:
        with obs.span("corpus.shard.worker", shard=task[0].index,
                      attempt=task[2] if len(task) > 2 else 0):
            outcome = _process_shard_inner(task)
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


def _process_shard_inner(task: Tuple) -> ShardOutcome:
    if len(task) == 2:
        info, options = task
        attempt = 0
    else:
        info, options, attempt = task
    outcome = ShardOutcome(index=info.index, file=info.file)
    started = time.perf_counter()
    if not options.in_process:
        metrics.registry().reset()
    # Forked workers inherit the armed chaos plan.  The kill point is
    # gated off the in-process path — os._exit there would take the
    # driver down, which is the one thing chaos must never do.
    chaos.fire("corpus.shard_hang", shard=info.index, attempt=attempt)
    if not options.in_process:
        chaos.fire("corpus.worker_kill", shard=info.index,
                   attempt=attempt)
    try:
        programs = load_shard(Path(options.corpus_dir), info, verify=True)
        for entry in programs:
            outcome.programs += 1
            try:
                with guarded(options.per_program_seconds,
                             "corpus program {}".format(entry["name"])):
                    _count_program(entry, options, outcome)
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception as exc:  # per-program bulkhead
                outcome.failures.append({
                    "seed": entry.get("seed"),
                    "name": entry.get("name"),
                    "phase": "program",
                    "error": type(exc).__name__,
                    "message": str(exc),
                })
    except (KeyboardInterrupt, SystemExit):
        raise
    except Exception as exc:  # per-shard bulkhead
        outcome.failures.append({
            "seed": None,
            "name": info.file,
            "phase": "shard",
            "error": type(exc).__name__,
            "message": str(exc),
        })
    outcome.seconds = time.perf_counter() - started
    if not options.in_process:
        outcome.counters = metrics.registry().snapshot()
    return outcome


def _merge_worker_counters(snapshot: List[dict]) -> None:
    """Fold one worker registry snapshot into the parent registry.

    Counters accumulate into the shared child for the same series;
    gauges adopt the worker's last value; histograms are summarised by
    their event count under a ``.events`` counter (bucket-level merge is
    not worth carrying across the pipe).
    """
    registry = metrics.registry()
    for entry in snapshot:
        labels = entry["labels"]
        if entry["kind"] == "counter":
            if entry["value"]:
                registry.counter(entry["name"], **labels).inc(entry["value"])
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
    with multiprocessing.Pool(processes=jobs) as pool:

        def submit(info: ShardInfo, options: _RunOptions,
                   attempt: int) -> None:
            pending.append({
                "handle": pool.apply_async(
                    _process_shard, ((info, options, attempt),)),
                "info": info,
                "options": options,
                "attempt": attempt,
                "started": time.monotonic(),
            })

        while pending or not exhausted:
            while not exhausted and len(pending) < window:
                try:
                    info, options, attempt = next(tasks_iter)
                except StopIteration:
                    exhausted = True
                    break
                submit(info, options, attempt)
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
                    if entry["attempt"] < max_shard_retries:
                        registry.counter("corpus.shard.retries").inc()
                        submit(entry["info"], entry["options"],
                               entry["attempt"] + 1)
                    else:
                        registry.counter("corpus.shard.quarantined").inc()
                        quarantined.append({
                            "index": entry["info"].index,
                            "file": entry["info"].file,
                            "attempts": entry["attempt"] + 1,
                            "reason": "shard exceeded {}s timeout on every "
                                      "attempt (hung or killed worker)"
                                      .format(shard_timeout_seconds),
                        })
            if not progressed:
                time.sleep(_POOL_POLL_SECONDS)
    return outcomes, quarantined


def run_corpus(
    corpus_dir: Path,
    jobs: Optional[int] = None,
    analyses: Optional[Sequence[str]] = None,
    engine: str = DEFAULT_ENGINE,
    oracles: bool = False,
    per_program_seconds: Optional[float] = PER_PROGRAM_SECONDS,
    max_steps: int = MAX_STEPS,
    max_shards: Optional[int] = None,
    shard_timeout_seconds: Optional[float] = None,
    max_shard_retries: int = 1,
    progress: Optional[Callable[[ShardOutcome], None]] = None,
) -> CorpusRunReport:
    """Drive Table 5 counting (and optionally the oracle battery) over
    every shard of a corpus, ``jobs`` shards at a time.

    ``shard_timeout_seconds`` arms the hung/dead-worker watchdog
    (``jobs > 1`` only): shards whose worker hangs or dies retry up to
    ``max_shard_retries`` times and are then quarantined into
    ``report.quarantined``."""
    from repro.analysis.openworld import ANALYSIS_NAMES

    corpus_dir = Path(corpus_dir)
    manifest = load_manifest(corpus_dir)
    if jobs is None:
        jobs = default_jobs()
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    analyses = tuple(analyses) if analyses else tuple(ANALYSIS_NAMES)
    shards = manifest.shards[:max_shards]
    n_shards = len(shards)
    options = _RunOptions(
        corpus_dir=str(corpus_dir),
        analyses=analyses,
        engine=engine,
        oracles=oracles,
        per_program_seconds=per_program_seconds,
        max_steps=max_steps,
        in_process=(jobs == 1),
        spec=manifest.spec.to_json(),
    )
    tasks = ((info, options, 0) for info in shards)
    report = CorpusRunReport(
        corpus_dir=str(corpus_dir), engine=engine, jobs=jobs,
        analyses=analyses)
    started = time.monotonic()
    with obs.span("corpus.run", shards=n_shards, jobs=jobs, engine=engine):
        if jobs == 1:
            outcomes = [_process_shard(task) for task in tasks]
        else:
            # fork keeps the workers cheap; the registry reset inside
            # _process_shard makes the inherited state irrelevant.
            outcomes, report.quarantined = _run_sharded_pool(
                tasks, jobs, shard_timeout_seconds, max_shard_retries)
        outcomes.sort(key=lambda o: o.index)  # deterministic merge order
        report.quarantined.sort(key=lambda q: q["index"])
        registry = metrics.registry()
        for outcome in outcomes:
            if outcome.counters is not None:
                _merge_worker_counters(outcome.counters)
                outcome.counters = None
            registry.counter("corpus.shard.programs").inc(outcome.programs)
            registry.counter("corpus.shard.pairs").inc(
                outcome.local_pairs + outcome.global_pairs)
            registry.counter("corpus.shard.seconds").inc(outcome.seconds)
            with obs.span("corpus.shard", index=outcome.index,
                          programs=outcome.programs):
                pass  # marker span: shard boundaries in the trace timeline
            report.shards.append(outcome)
            if progress is not None:
                progress(outcome)
    report.duration = time.monotonic() - started
    registry.counter("corpus.run.shards").inc(len(report.shards))
    return report
