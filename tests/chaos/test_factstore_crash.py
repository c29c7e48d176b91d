"""FactStore crash safety: every damaged on-disk state reads as a miss.

The store's write protocol is: write the partition to ``.tmp`` →
``os.replace`` it into place → stamp its mtime.  A kill before the
replace leaves a ``.tmp`` (removed at the next open) and the old
partition, if any; a kill after it leaves a partition that verifies.
Whatever else happens to the bytes — truncation, a flipped bit, an old
build's layout — must (a) read as a plain miss, never an exception and
never a wrong bundle, and (b) self-heal on the next ``store``.
"""

import hashlib
import json
from pathlib import Path

from repro.analysis.facts import new_bundle
from repro.obs import metrics
from repro.serve.factcache import FactStore


def _bundle(tag, n_procs=2):
    key = hashlib.sha256(tag.encode()).hexdigest()
    return new_bundle("Mod" + tag, key,
                      {"P%d" % i: "h%d" % i for i in range(n_procs)})


def _reset():
    metrics.registry().reset()


def _corrupt():
    return int(metrics.registry().counter("serve.factcache.corrupt").value)


def _heals(store, bundle):
    """The canonical recovery check: re-store then load back."""
    store.store(bundle)
    loaded = store.load(bundle.module_hash)
    assert loaded is not None
    assert loaded.module_hash == bundle.module_hash
    assert loaded.proc_hashes == bundle.proc_hashes


def _partition(root, bundle):
    return root / "facts-{}.json".format(bundle.module_hash)


def test_kill_before_replace_leaves_a_tmp_that_open_removes(tmp_path):
    """A torn ``.tmp`` beside the last good partition: the next process
    removes it and serves the partition that was in place."""
    _reset()
    store = FactStore(tmp_path)
    bundle = _bundle("a")
    store.store(bundle)
    good = _partition(tmp_path, bundle).read_bytes()
    _partition(tmp_path, bundle).with_suffix(".tmp").write_bytes(
        good[: len(good) // 2])
    orphan = _bundle("never-replaced")
    _partition(tmp_path, orphan).with_suffix(".tmp").write_bytes(good)

    reopened = FactStore(tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        [_partition(tmp_path, bundle).name]
    assert reopened.total_bytes() == len(good)
    assert reopened.load(bundle.module_hash) is not None
    assert reopened.load(orphan.module_hash) is None  # plain miss
    assert _corrupt() == 0
    _heals(reopened, orphan)


def test_kill_after_replace_serves_the_partition(tmp_path):
    """Replaced but never stamped (or never indexed by anything): the
    partition verifies, so a fresh process serves it."""
    _reset()
    store = FactStore(tmp_path)
    bundle = _bundle("replaced")
    store.store(bundle)
    reopened = FactStore(tmp_path)
    assert reopened.keys() == [bundle.module_hash]
    assert reopened.load(bundle.module_hash) == bundle
    assert _corrupt() == 0


def test_mid_byte_partition_truncation_reads_as_miss(tmp_path):
    """Torn partition write (or chaos ``factstore.corrupt``)."""
    _reset()
    store = FactStore(tmp_path)
    bundle = _bundle("torn")
    store.store(bundle)
    full = next(tmp_path.glob("facts-*.json")).stat().st_size
    for cut in (full - 1, full // 2, 3, 1, 0):
        store.store(bundle)  # restore a good copy to truncate again
        partition = next(tmp_path.glob("facts-*.json"))
        partition.write_bytes(partition.read_bytes()[:cut])
        assert store.load(bundle.module_hash) is None, cut
    assert _corrupt() == 5
    _heals(store, bundle)


def test_old_layout_is_removed_at_open_and_never_loaded(tmp_path):
    """An older build's ``index.json`` (torn, here), its ``index.tmp``
    and its ``facts-*.pkl`` partitions sit outside the budget: opening
    the store removes them, and the store holds only its own files."""
    _reset()
    store = FactStore(tmp_path)
    bundle = _bundle("current")
    store.store(bundle)
    (tmp_path / "index.json").write_text('{"layout": 1, "entr')
    (tmp_path / "index.tmp").write_text("{ torn json")
    old = tmp_path / "facts-{}.pkl".format(bundle.module_hash[:32])
    old.write_bytes(b"\x80\x05not loaded")
    reopened = FactStore(tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        [_partition(tmp_path, bundle).name]
    assert reopened.load(bundle.module_hash) == bundle
    assert _corrupt() == 0


def test_leftover_index_tmp_is_harmless(tmp_path):
    """Kill mid-write: the ``.tmp`` is removed at open, never read."""
    _reset()
    store = FactStore(tmp_path)
    bundle = _bundle("tmpfile")
    store.store(bundle)
    (tmp_path / "facts-{}.tmp".format(bundle.module_hash)).write_text(
        "{ torn json")
    (tmp_path / "index.tmp").write_text("{ torn json")
    reopened = FactStore(tmp_path)
    assert reopened.load(bundle.module_hash) is not None
    assert not list(tmp_path.glob("*.tmp"))
    _heals(reopened, _bundle("tmpfile2"))


def test_index_entry_without_partition_reads_as_miss(tmp_path):
    """A listed key whose partition file vanished after open."""
    _reset()
    store = FactStore(tmp_path)
    bundle = _bundle("ghost")
    store.store(bundle)
    next(tmp_path.glob("facts-*.json")).unlink()
    assert bundle.module_hash in store.keys()  # listing says yes...
    assert store.load(bundle.module_hash) is None  # ...disk says miss
    assert store.keys() == []  # and the dangling entry is dropped
    assert store.total_bytes() == 0
    _heals(store, bundle)


def test_checksummed_payload_of_another_shape_reads_as_miss(tmp_path):
    """A header whose digest matches a payload that is not a bundle, or
    is a bundle for another key: rejected by shape and key, not by
    checksum alone."""
    from repro.analysis.facts import FACTS_SCHEMA_VERSION

    _reset()
    store = FactStore(tmp_path)
    bundle = _bundle("shape")
    store.store(bundle)
    other = _bundle("other").to_json()
    for payload in (b'["not", "a", "dict"]\n',
                    json.dumps(other).encode() + b"\n"):
        header = {"kind": "fact_partition", "schema": FACTS_SCHEMA_VERSION,
                  "sha256": hashlib.sha256(payload).hexdigest()}
        _partition(tmp_path, bundle).write_bytes(
            json.dumps(header).encode() + b"\n" + payload)
        assert store.load(bundle.module_hash) is None
        _heals(store, bundle)
    assert _corrupt() == 2


M3CG = Path(__file__).resolve().parents[2] / \
    "src/repro/bench/programs/m3cg.m3"


def test_every_single_bit_flip_of_a_full_partition_reads_as_miss(tmp_path):
    """m3cg's partition with both worlds' facts and all six
    configurations: flipping bit 0 of any byte is a miss that counts as
    corrupt, never a wrong bundle or an exception, and the next store
    heals it."""
    from repro.serve.session import SessionManager

    _reset()
    store = FactStore(tmp_path, max_bytes=None)
    manager = SessionManager(store=store)
    session = manager.lookup(M3CG.read_text(), name="m3cg")
    for open_world in (False, True):
        manager.tables(session, open_world)
        manager.facts_summary(session, open_world)
    bundle = session.bundle
    assert bundle.n_configs() == 6 and len(bundle.worlds) == 2
    path = _partition(tmp_path, bundle)
    good = path.read_bytes()
    assert store.load(bundle.module_hash) == bundle

    _reset()
    for offset in range(len(good)):
        flipped = bytearray(good)
        flipped[offset] ^= 1
        path.write_bytes(bytes(flipped))
        assert store.load(bundle.module_hash) is None, offset
        assert _corrupt() == offset + 1
        store.store(bundle)
        assert path.read_bytes() == good
    assert store.load(bundle.module_hash) == bundle
