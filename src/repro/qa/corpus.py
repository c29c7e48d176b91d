"""Sharded corpus pipeline: ``repro corpus gen / verify / run``.

``repro fuzz`` checks seeded programs it generates in memory; the
corpus pipeline materialises the same deterministic generator's output
on disk, 10³–10⁵ MiniM3 programs, and drives batch work over them:

* :func:`generate_corpus` renders programs for seeds ``seed ..
  seed+count-1`` (size/shape dials come from :class:`CorpusSpec`, a
  superset of :class:`~repro.qa.generator.GenConfig`) and writes them in
  **content-hashed shards**.  A corpus is one ``manifest.json`` — the
  spec and one ``{programs, sha256}`` entry per shard, whose index is
  its position — plus the shard files, each named from its index and
  the SHA-256 of its program payload (:func:`shard_file`).  A changed
  hash, a missing shard or a renamed one is caught before any batch
  consumes it (:func:`verify_corpus`), as a :class:`CorpusError`.
* :func:`run_corpus` counts Table 5 for every program (optionally with
  the oracle battery) through the batch runner's shard pool,
  :func:`repro.qa.runner.run_shards`, the one ``repro fuzz`` uses: a
  pool of ``jobs`` workers (``jobs=1`` stays in-process), a fault
  bulkhead per shard and per program, and a merge by shard index that
  folds every worker's counters into this process's registry.  Each
  shard adds to the ``corpus.shard.programs`` / ``corpus.shard.pairs``
  / ``corpus.shard.seconds`` counter family.  ``repro bench gate
  --corpus`` times a single-process run inside its measured segment.

Every program entry in a shard carries its generating seed *and* its
rendered source hash; because generation is deterministic, workers can
cross-check the stored source against a regeneration of the seed, which
the ``--oracles`` mode uses before trusting a program.
"""

import hashlib
import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple

from repro import compile_program
from repro.analysis.alias_pairs import DEFAULT_ENGINE
from repro.obs import core as obs
from repro.obs import metrics
from repro.qa.generator import GenConfig, generate_program
from repro.qa.guards import (MAX_STEPS, PER_PROGRAM_SECONDS, default_jobs,
                             guarded)
from repro.qa.oracles import check_program
from repro.qa.runner import FailureRecord, ShardOutcome, run_shards

__all__ = [
    "CorpusSpec",
    "CorpusManifest",
    "CorpusError",
    "ShardInfo",
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
# Runs


def _summed(name: str) -> property:
    """A report total: the sum of one :class:`ShardOutcome` field."""
    return property(lambda report: sum(getattr(shard, name)
                                       for shard in report.shards))


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

    programs = _summed("programs")
    compiled = _summed("compiled")
    references = _summed("references")
    local_pairs = _summed("local_pairs")
    global_pairs = _summed("global_pairs")

    @property
    def failures(self) -> List[FailureRecord]:
        return [f for shard in self.shards for f in shard.failures]

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
            "failures": [f.to_json() for f in self.failures],
            "quarantined": self.quarantined,
            "duration_seconds": round(self.duration, 3),
            "programs_per_second": round(self.throughput(), 2),
            "shards": [s.to_json() for s in self.shards],
        }


@dataclass
class _CorpusJob:
    """How ``corpus run`` fills and checks a shard (pickled to workers)."""

    corpus_dir: str
    analyses: Tuple[str, ...]
    engine: str
    oracles: bool
    per_program_seconds: Optional[float]
    max_steps: int
    config: GenConfig  # the corpus's generator dials, for the oracles

    def entries(self, info: ShardInfo) -> List[dict]:
        return load_shard(Path(self.corpus_dir), info, verify=True)

    def check(self, entry: dict, outcome: ShardOutcome) -> None:
        """Table 5 (and optionally the oracle battery) for one program."""
        with guarded(self.per_program_seconds,
                     "corpus program {}".format(entry["name"])):
            program = compile_program(entry["source"], entry["name"])
            outcome.compiled += 1
            for analysis_name in self.analyses:
                report = program.alias_pairs(analysis_name,
                                             engine=self.engine)
                outcome.references += report.references
                outcome.local_pairs += report.local_pairs
                outcome.global_pairs += report.global_pairs
            if not self.oracles:
                return
            # Determinism doubles as integrity: the recorded seed must
            # regenerate the stored bytes before the oracles vouch for it.
            regenerated = generate_program(entry["seed"], self.config)
            digest = hashlib.sha256(regenerated.render().encode()).hexdigest()
            if digest != entry["sha256"]:
                raise ValueError(
                    "seed {} does not regenerate the stored program {}"
                    .format(entry["seed"], entry["name"]))
            outcome.note_oracle(entry["seed"], check_program(
                entry["source"], name=entry["name"], seed=entry["seed"],
                max_steps=self.max_steps))


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
    every shard of a corpus, ``jobs`` shards at a time, through
    :func:`~repro.qa.runner.run_shards`.

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
    job = _CorpusJob(
        corpus_dir=str(corpus_dir),
        analyses=analyses,
        engine=engine,
        oracles=oracles,
        per_program_seconds=per_program_seconds,
        max_steps=max_steps,
        config=manifest.spec.gen_config(),
    )
    report = CorpusRunReport(
        corpus_dir=str(corpus_dir), engine=engine, jobs=jobs,
        analyses=analyses)
    started = time.monotonic()
    with obs.span("corpus.run", shards=len(shards), jobs=jobs,
                  engine=engine):
        report.shards, report.quarantined = run_shards(
            job, shards, jobs, shard_timeout_seconds, max_shard_retries)
        registry = metrics.registry()
        for outcome in report.shards:
            registry.counter("corpus.shard.programs").inc(outcome.programs)
            registry.counter("corpus.shard.pairs").inc(
                outcome.local_pairs + outcome.global_pairs)
            registry.counter("corpus.shard.seconds").inc(outcome.seconds)
            with obs.span("corpus.shard", index=outcome.index,
                          programs=outcome.programs):
                pass  # marker span: shard boundaries in the trace timeline
            if progress is not None:
                progress(outcome)
    report.duration = time.monotonic() - started
    registry.counter("corpus.run.shards").inc(len(report.shards))
    return report
