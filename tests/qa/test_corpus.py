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

    from repro.qa import corpus as corpus_mod

    digest = hashlib.sha256(
        json.dumps(payload["programs"], sort_keys=True).encode()
    ).hexdigest()
    shards_path = out / corpus_mod.SHARDS_NAME
    lines = [json.loads(line) for line in shards_path.read_text().splitlines()]
    lines[0]["sha256"] = digest
    shards_path.write_text(
        "".join(json.dumps(obj, sort_keys=True) + "\n" for obj in lines))
    payload["sha256"] = digest
    shard_path.write_text(json.dumps(payload))

    report = run_corpus(out, jobs=1, oracles=True, max_shards=1)
    assert not report.ok
    assert any("regenerate" in f["message"] for f in report.failures)
    # The bulkhead held: the rest of the shard still ran.
    assert report.shards[0].programs == 5


def test_manifest_header_and_shard_stream(corpus_dir):
    """v2 layout: constant-size header + one-line-per-shard sidecar."""
    from repro.qa.corpus import (
        CORPUS_SCHEMA_VERSION,
        MANIFEST_NAME,
        SHARDS_NAME,
        iter_shards,
        load_manifest_header,
    )

    header = load_manifest_header(corpus_dir)
    assert header.schema == CORPUS_SCHEMA_VERSION
    assert header.programs == 12
    assert header.n_shards == 3
    assert header.shards_file == SHARDS_NAME
    # The manifest itself no longer embeds the shard list...
    mdata = json.loads((corpus_dir / MANIFEST_NAME).read_text())
    assert "shards" not in mdata
    assert mdata["shards_file"] == SHARDS_NAME
    # ...the sidecar streams it, one line per shard, in index order.
    assert len((corpus_dir / SHARDS_NAME).read_text().splitlines()) == 3
    stream = iter_shards(corpus_dir)
    assert iter(stream) is stream  # a true generator, not a list
    infos = list(stream)
    assert [s.index for s in infos] == [0, 1, 2]
    assert infos == list(load_manifest(corpus_dir).shards)


def test_v1_manifest_back_compat(tmp_path):
    """A v1 corpus (inline shard list, no sidecar) still loads and runs."""
    from repro.qa.corpus import MANIFEST_NAME, SHARDS_NAME, iter_shards

    out = tmp_path / "v1"
    manifest = generate_corpus(SPEC, out)
    mdata = json.loads((out / MANIFEST_NAME).read_text())
    mdata["schema"] = 1
    del mdata["shards_file"]
    mdata["shards"] = [s.to_json() for s in manifest.shards]
    (out / MANIFEST_NAME).write_text(json.dumps(mdata))
    (out / SHARDS_NAME).unlink()

    assert [s.sha256 for s in iter_shards(out)] == \
        [s.sha256 for s in manifest.shards]
    assert verify_corpus(out).n_programs == 12
    report = run_corpus(out, jobs=1, max_shards=1)
    assert report.ok and report.programs == 5


def test_shard_stream_rejects_sparse_indices(tmp_path):
    from repro.qa.corpus import SHARDS_NAME, iter_shards

    out = tmp_path / "sparse"
    generate_corpus(SPEC, out)
    path = out / SHARDS_NAME
    lines = path.read_text().splitlines()
    path.write_text(lines[0] + "\n" + lines[2] + "\n")
    with pytest.raises(ValueError, match="dense"):
        list(iter_shards(out))
