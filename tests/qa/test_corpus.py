"""Sharded corpus pipeline: generation, integrity and runs.

Everything here runs on tiny corpora (a dozen programs) — the
larger throughput runs live behind ``repro bench gate --corpus`` and the
Makefile, not the unit suite.
"""

import json

import pytest

from repro.qa.corpus import (
    CorpusSpec,
    generate_corpus,
    load_manifest,
    load_shard,
    run_corpus,
    verify_corpus,
)

SPEC = CorpusSpec(seed=7, count=12, shard_size=5, max_stmts=12)


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    generate_corpus(SPEC, out)
    return out


def test_spec_validation():
    with pytest.raises(ValueError):
        CorpusSpec(count=0)
    with pytest.raises(ValueError):
        CorpusSpec(shard_size=0)
    spec = CorpusSpec(count=12, shard_size=5)
    assert spec.n_shards() == 3
    assert CorpusSpec.from_json(spec.to_json()) == spec


def test_generation_is_deterministic(tmp_path, corpus_dir):
    again = tmp_path / "again"
    generate_corpus(SPEC, again)
    first = load_manifest(corpus_dir)
    second = load_manifest(again)
    assert [s.sha256 for s in first.shards] == [s.sha256 for s in second.shards]
    assert [s.file for s in first.shards] == [s.file for s in second.shards]
    # A different seed produces different content (hash-distinct shards).
    other = tmp_path / "other"
    generate_corpus(CorpusSpec(seed=8, count=12, shard_size=5, max_stmts=12), other)
    assert [s.sha256 for s in load_manifest(other).shards] != \
        [s.sha256 for s in first.shards]


def test_manifest_and_shards(corpus_dir):
    manifest = verify_corpus(corpus_dir)
    assert manifest.n_programs == 12
    assert len(manifest.shards) == 3
    assert [s.programs for s in manifest.shards] == [5, 5, 2]
    programs = load_shard(corpus_dir, manifest.shards[0])
    assert len(programs) == 5
    assert {"seed", "name", "sha256", "source"} <= set(programs[0])


def test_verify_detects_tampering(tmp_path):
    out = tmp_path / "tampered"
    generate_corpus(SPEC, out)
    manifest = load_manifest(out)
    shard_path = out / manifest.shards[1].file
    payload = json.loads(shard_path.read_text())
    payload["programs"][0]["source"] += "\n(* tampered *)\n"
    shard_path.write_text(json.dumps(payload))
    with pytest.raises(ValueError):
        verify_corpus(out)


def test_run_in_process(corpus_dir):
    report = run_corpus(corpus_dir, jobs=1)
    assert report.ok
    assert report.programs == 12
    assert report.compiled == 12
    assert report.references > 0
    assert report.jobs == 1
    data = report.to_json()
    assert data["engine"] == "fast"
    assert len(data["shards"]) == 3


def test_run_jobs_match_and_merge_is_deterministic(corpus_dir):
    serial = run_corpus(corpus_dir, jobs=1)
    pooled = run_corpus(corpus_dir, jobs=2)
    assert pooled.jobs == 2
    for a, b in zip(serial.shards, pooled.shards):
        assert (a.index, a.programs, a.references, a.local_pairs,
                a.global_pairs) == \
            (b.index, b.programs, b.references, b.local_pairs, b.global_pairs)


def test_trace_records_the_same_counter_series_at_any_jobs(corpus_dir,
                                                           tmp_path):
    """Worker counters reach --trace, zero-valued series included.  Each
    run is a fresh interpreter, so no series is left over from another
    run in this process."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parents[2] / "src"),
                    env.get("PYTHONPATH")) if p)

    def counters(jobs):
        path = tmp_path / "jobs{}.jsonl".format(jobs)
        subprocess.run([sys.executable, "-m", "repro", "-q", "corpus", "run",
                        str(corpus_dir), "--jobs", str(jobs), "--no-history",
                        "--trace", str(path)], env=env, check=True,
                       capture_output=True)
        record = json.loads(path.read_text())
        return {(e["name"], tuple(sorted(e["labels"].items()))): e["value"]
                for e in record["metrics"] if e["kind"] == "counter"
                and e["name"] != "corpus.shard.seconds"}  # wall clock

    pooled = counters(2)
    assert pooled == counters(1)
    assert pooled[("alias.cache.hits", (("analysis", "TypeDecl"),))] == 0


def test_run_differential_engine(corpus_dir):
    fast = run_corpus(corpus_dir, jobs=1, max_shards=1)
    diff = run_corpus(corpus_dir, jobs=1, engine="differential", max_shards=1)
    assert diff.ok
    assert (diff.local_pairs, diff.global_pairs) == \
        (fast.local_pairs, fast.global_pairs)
    assert diff.programs == 5  # max_shards limited the sweep


def test_run_with_oracles(corpus_dir):
    report = run_corpus(corpus_dir, jobs=1, oracles=True, max_shards=1)
    assert report.ok
    assert all(o.oracle_checked == o.programs for o in report.shards)


def test_oracles_catch_seed_drift(tmp_path):
    """A shard whose recorded seed can't regenerate its bytes fails."""
    out = tmp_path / "drift"
    generate_corpus(SPEC, out)
    manifest = load_manifest(out)
    shard_path = out / manifest.shards[0].file
    payload = json.loads(shard_path.read_text())
    payload["programs"][0]["seed"] += 1000
    text = json.dumps(payload)
    shard_path.write_text(text)
    # Keep the content hashes consistent so only the seed lies.
    import hashlib

    from repro.qa.corpus import MANIFEST_NAME, shard_file

    digest = hashlib.sha256(
        json.dumps(payload["programs"], sort_keys=True).encode()
    ).hexdigest()
    mdata = json.loads((out / MANIFEST_NAME).read_text())
    mdata["shards"][0]["sha256"] = digest
    (out / MANIFEST_NAME).write_text(json.dumps(mdata))
    shard_path.rename(out / shard_file(0, digest))

    report = run_corpus(out, jobs=1, oracles=True, max_shards=1)
    assert not report.ok
    assert any("regenerate" in f.message for f in report.failures)
    # The bulkhead held: the rest of the shard still ran.
    assert report.shards[0].programs == 5


def test_failing_program_record_carries_its_digest(tmp_path):
    """A corpus failure is a FailureRecord, digest included."""
    import hashlib

    from repro.qa.corpus import MANIFEST_NAME, shard_file
    from repro.qa.runner import failure_digest

    out = tmp_path / "broken"
    generate_corpus(SPEC, out)
    manifest = load_manifest(out)
    payload = json.loads((out / manifest.shards[0].file).read_text())
    payload["programs"][1]["source"] = "MODULE Broken; BEGIN x := 1 END Broken."
    digest = hashlib.sha256(
        json.dumps(payload["programs"], sort_keys=True).encode()).hexdigest()
    (out / manifest.shards[0].file).unlink()
    (out / shard_file(0, digest)).write_text(json.dumps(payload))
    mdata = json.loads((out / MANIFEST_NAME).read_text())
    mdata["shards"][0]["sha256"] = digest
    (out / MANIFEST_NAME).write_text(json.dumps(mdata))

    report = run_corpus(out, jobs=1, max_shards=1)
    [failure] = report.failures
    assert (failure.seed, failure.name, failure.phase) == (
        payload["programs"][1]["seed"], payload["programs"][1]["name"],
        "harness")
    assert failure.digest == failure_digest(failure.phase, failure.kind,
                                            failure.message)
    assert report.to_json()["failures"] == [failure.to_json()]
    assert report.compiled == 4  # the bulkhead held


def test_manifest_header_and_shard_stream(corpus_dir):
    """One manifest lists every shard; file names derive from it."""
    from repro.qa.corpus import (
        CORPUS_SCHEMA_VERSION,
        MANIFEST_NAME,
        iter_shards,
        load_manifest_header,
        shard_file,
    )

    header = load_manifest_header(corpus_dir)
    assert header == load_manifest(corpus_dir)
    assert header.n_programs == 12
    mdata = json.loads((corpus_dir / MANIFEST_NAME).read_text())
    assert mdata["schema"] == CORPUS_SCHEMA_VERSION == 3
    assert set(mdata) == {"schema", "kind", "spec", "shards"}
    assert mdata["shards"] == [{"programs": s.programs, "sha256": s.sha256}
                               for s in header.shards]
    infos = list(iter_shards(corpus_dir, header))
    assert [s.index for s in infos] == [0, 1, 2]
    assert infos == list(iter_shards(corpus_dir))
    # gen writes the manifest and the shard files, nothing else.
    assert sorted(p.name for p in corpus_dir.iterdir()) == sorted(
        [MANIFEST_NAME] + [shard_file(s.index, s.sha256) for s in infos])


def _damage(corpus_dir, how):
    from repro.qa.corpus import MANIFEST_NAME

    manifest = load_manifest(corpus_dir)
    shard = corpus_dir / manifest.shards[1].file
    if how == "manifest-hash":
        mdata = json.loads((corpus_dir / MANIFEST_NAME).read_text())
        mdata["shards"][1]["sha256"] = "0" * 64
        (corpus_dir / MANIFEST_NAME).write_text(json.dumps(mdata))
    elif how == "missing":
        shard.unlink()
    else:
        shard.rename(corpus_dir / ("x" + shard.name))


@pytest.mark.parametrize("how", ["manifest-hash", "missing", "renamed"])
def test_verify_fails_with_one_typed_error(tmp_path, capsys, how):
    from repro.cli import main
    from repro.qa.corpus import CorpusError

    out = tmp_path / "damaged"
    generate_corpus(SPEC, out)
    _damage(out, how)
    with pytest.raises(CorpusError, match="shard-0001"):
        verify_corpus(out)
    assert main(["corpus", "verify", str(out)]) == 1
    errors = capsys.readouterr().err.strip().splitlines()
    assert len(errors) == 1 and "shard-0001" in errors[0]


def test_older_manifest_layouts_are_rejected(tmp_path):
    from repro.qa.corpus import MANIFEST_NAME, CorpusError

    out = tmp_path / "old"
    manifest = generate_corpus(SPEC, out)
    mdata = json.loads((out / MANIFEST_NAME).read_text())
    v2 = dict(mdata, schema=2, n_shards=len(manifest.shards))
    del v2["shards"]
    for old in (dict(mdata, schema=1), v2):
        (out / MANIFEST_NAME).write_text(json.dumps(old))
        with pytest.raises(CorpusError, match="schema"):
            verify_corpus(out)
    for entry in ({"programs": 5}, {"programs": "5", "sha256": "a" * 64},
                  {"programs": 5, "sha256": "A" * 64}, [5]):
        (out / MANIFEST_NAME).write_text(json.dumps(
            dict(mdata, shards=[entry])))
        with pytest.raises(CorpusError, match="shard 0"):
            verify_corpus(out)
