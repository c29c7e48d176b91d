"""The on-disk fact store: hits, misses, corruption, budget eviction."""

import pytest

from repro.analysis.facts import FACTS_SCHEMA_VERSION, new_bundle
from repro.obs import metrics
from repro.serve.factcache import FactStore


def _bundle(tag, n_procs=2):
    import hashlib

    key = hashlib.sha256(tag.encode()).hexdigest()
    return new_bundle("Mod" + tag, key,
                      {"P%d" % i: "h%d" % i for i in range(n_procs)})


def _count(name):
    return int(metrics.registry().counter("serve.factcache." + name).value)


def test_store_load_roundtrip_and_counters(tmp_path):
    metrics.registry().reset()
    store = FactStore(tmp_path)
    bundle = _bundle("a")
    assert store.load(bundle.module_hash) is None
    assert _count("miss") == 1

    store.store(bundle)
    assert _count("store") == 1
    loaded = store.load(bundle.module_hash)
    assert loaded is not None
    assert loaded.module_hash == bundle.module_hash
    assert loaded.proc_hashes == bundle.proc_hashes
    assert _count("hit") == 1
    assert store.total_bytes() > 0
    assert len(store) == 1


def test_index_survives_restart(tmp_path):
    store = FactStore(tmp_path)
    bundle = _bundle("persist")
    store.store(bundle)

    reopened = FactStore(tmp_path)
    assert reopened.keys() == [bundle.module_hash]
    assert reopened.load(bundle.module_hash).module_name == \
        bundle.module_name


def test_corrupt_file_reads_as_miss_and_is_dropped(tmp_path):
    metrics.registry().reset()
    store = FactStore(tmp_path)
    bundle = _bundle("rot")
    store.store(bundle)
    pkl = next(tmp_path.glob("facts-*.pkl"))
    pkl.write_bytes(b"this is not a pickle")

    assert store.load(bundle.module_hash) is None
    assert _count("corrupt") == 1
    assert len(store) == 0  # quarantined, not retried forever


def test_schema_version_bump_reads_as_miss(tmp_path):
    store = FactStore(tmp_path)
    bundle = _bundle("stale")
    bundle.schema = FACTS_SCHEMA_VERSION + 1
    store.store(bundle)
    assert store.load(bundle.module_hash) is None

    old_build = _bundle("old")
    old_build.repro_version = "0.0.0"
    store.store(old_build)
    assert store.load(old_build.module_hash) is None


def test_byte_budget_evicts_lru_but_protects_fresh_store(tmp_path):
    metrics.registry().reset()
    probe = FactStore(tmp_path / "probe")
    probe.store(_bundle("size"))
    one_bundle = probe.total_bytes()

    # Budget for ~2 partitions: the third store evicts the stalest.
    store = FactStore(tmp_path / "cap", max_bytes=int(one_bundle * 2.5))
    a, b, c = _bundle("ev-a"), _bundle("ev-b"), _bundle("ev-c")
    store.store(a)
    store.store(b)
    store.load(a.module_hash)  # a is now fresher than b
    store.store(c)
    assert _count("evict") >= 1
    keys = store.keys()
    assert c.module_hash in keys  # just-stored key is protected
    assert a.module_hash in keys  # recently used survived
    assert b.module_hash not in keys  # LRU victim
    assert store.total_bytes() <= int(one_bundle * 2.5)


def test_unbounded_store_never_evicts(tmp_path):
    metrics.registry().reset()
    store = FactStore(tmp_path, max_bytes=None)
    for tag in ("u1", "u2", "u3", "u4"):
        store.store(_bundle(tag))
    assert len(store) == 4
    assert _count("evict") == 0


def test_drop_removes_partition(tmp_path):
    store = FactStore(tmp_path)
    bundle = _bundle("dropme")
    store.store(bundle)
    store.drop(bundle.module_hash)
    assert store.keys() == []
    assert not list(tmp_path.glob("facts-*.pkl"))


STALE_SOURCE = """
MODULE Stale;

TYPE
  T = OBJECT f: T; n: INTEGER; END;

VAR root: T;

PROCEDURE Link (p, q: T) =
BEGIN
  p.f := q;
  q.n := p.n + 1;
END Link;

BEGIN
  root := NEW (T);
  Link (root, NEW (T));
END Stale.
"""


def test_schema_v1_partition_with_bulk_matrix_is_rebuilt(tmp_path,
                                                         monkeypatch):
    """A v1 partition pickles a ``repro.analysis.bulk.BulkAliasMatrix``
    inside every config; that module no longer exists.  Loading it must
    count as corrupt, drop it, and rebuild the right counts."""
    import pickle
    import sys
    import types

    from repro.analysis import ANALYSIS_NAMES
    from repro.analysis.facts import ConfigFacts, source_hash
    from repro.serve.session import SessionManager

    # Pickle the v1 layout through a stand-in for the deleted module, so
    # the bytes reference it exactly as a v1 build's partitions do.
    stub = types.ModuleType("repro.analysis.bulk")
    BulkAliasMatrix = type("BulkAliasMatrix", (), {"__module__": stub.__name__})
    stub.BulkAliasMatrix = BulkAliasMatrix
    monkeypatch.setitem(sys.modules, stub.__name__, stub)

    key = source_hash(STALE_SOURCE)
    stale = new_bundle("Stale", key, {})
    stale.schema = 1
    for name in ANALYSIS_NAMES:
        facts = ConfigFacts(analysis=name, open_world=False, references=999,
                            local_pairs=999, global_pairs=999)
        facts.matrix = BulkAliasMatrix()
        stale.add_config(facts)
    metrics.registry().reset()
    store = FactStore(tmp_path)
    store.store(stale)
    monkeypatch.delitem(sys.modules, stub.__name__)
    payload = next(tmp_path.glob("facts-*.pkl")).read_bytes()
    assert b"repro.analysis.bulk" in payload
    assert b"BulkAliasMatrix" in payload
    with pytest.raises(ImportError):
        pickle.loads(payload)

    manager = SessionManager(store=store)
    session = manager.lookup(STALE_SOURCE)
    assert _count("corrupt") == 1
    assert _count("hit") == 0
    rows = manager.tables(session, open_world=False)

    from repro import compile_program
    from repro.analysis.alias_pairs import AliasPairCounter

    program = compile_program(STALE_SOURCE, "stale.m3")
    base = program.base().program
    for row in rows:
        want = AliasPairCounter(base, program.analysis(row["analysis"]),
                                engine="reference").count().counts()
        assert (row["references"], row["local_pairs"],
                row["global_pairs"]) == want
        assert row["references"] != 999

    # The rebuilt partition is current and serves the same counts.
    reloaded = FactStore(tmp_path).load(key)
    assert reloaded is not None and reloaded.schema == FACTS_SCHEMA_VERSION
    assert [reloaded.config(r["analysis"], False).counts() for r in rows] == \
        [(r["references"], r["local_pairs"], r["global_pairs"]) for r in rows]
