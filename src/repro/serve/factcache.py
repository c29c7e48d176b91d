"""The versioned on-disk fact store behind ``repro serve``.

One **partition** per module content hash, holding that module's
:class:`~repro.analysis.facts.FactBundle` (per-procedure hashes, both
worlds' flattened facts, and every served configuration's Table 5
counts).  Partitions are pickle files named by the content hash,
plus an ``index.json`` carrying sizes and an LRU clock, so:

* an edit to one module only invalidates (i.e. re-keys) its own
  partition — untouched modules keep answering from disk;
* a schema or package version change reads as a **miss**, never a
  crash: :func:`~repro.analysis.facts.bundle_is_current` gates every
  load, and corrupt files are quarantined as misses too;
* the store enforces a byte budget with least-recently-used eviction
  (``serve.factcache.evict`` counts what the cap cost us).

The index is rewritten on every store, drop and eviction, and by
:meth:`FactStore.flush` at drain.  A hit only bumps the in-memory LRU
clock: rewriting the whole index on every read cost most of a hit's
time, under the store lock.  A crash therefore loses the recency of the
hits since the last write, never a partition.

Counters (shared series in :mod:`repro.obs.metrics`):
``serve.factcache.hit`` / ``.miss`` / ``.store`` / ``.evict`` /
``.corrupt`` and the ``serve.factcache.bytes`` gauge.
"""

import json
import os
import pickle
import threading
from pathlib import Path
from typing import Dict, List, Optional

from repro.analysis.facts import FACTS_SCHEMA_VERSION, FactBundle, bundle_is_current
from repro.obs import core as obs
from repro.obs import metrics
from repro.qa import chaos

#: Index file name inside the cache root.
INDEX_NAME = "index.json"

#: Bumped whenever the on-disk layout (not the bundle payload) changes.
STORE_LAYOUT_VERSION = 1

#: Default size cap: generous for corpora of small modules, small enough
#: that a forgotten daemon cannot eat a disk.
DEFAULT_MAX_BYTES = 256 * 1024 * 1024


def _counter(name: str):
    return metrics.registry().counter("serve.factcache." + name)


class FactStore:
    """Content-addressed, size-capped partition store for fact bundles."""

    def __init__(self, root: Path, max_bytes: Optional[int] = DEFAULT_MAX_BYTES):
        self.root = Path(root)
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        self.root.mkdir(parents=True, exist_ok=True)
        # key -> {"file", "bytes", "clock", "module"}
        self._index: Dict[str, dict] = {}
        self._clock = 0
        self._load_index()

    # -- index ----------------------------------------------------------

    def _index_path(self) -> Path:
        return self.root / INDEX_NAME

    def _load_index(self) -> None:
        try:
            obj = json.loads(self._index_path().read_text())
        except (OSError, json.JSONDecodeError):
            return
        if not isinstance(obj, dict) or obj.get("layout") != STORE_LAYOUT_VERSION:
            return
        entries = obj.get("entries")
        if isinstance(entries, dict):
            self._index = {
                key: entry for key, entry in entries.items()
                if isinstance(entry, dict) and "file" in entry
            }
            self._clock = max(
                [int(e.get("clock", 0)) for e in self._index.values()] or [0])

    def _write_index(self) -> None:
        payload = {
            "layout": STORE_LAYOUT_VERSION,
            "facts_schema": FACTS_SCHEMA_VERSION,
            "entries": self._index,
        }
        tmp = self._index_path().with_suffix(".tmp")
        tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        os.replace(tmp, self._index_path())

    def _touch(self, key: str) -> None:
        self._clock += 1
        self._index[key]["clock"] = self._clock

    # -- introspection --------------------------------------------------

    def keys(self) -> List[str]:
        with self._lock:
            return sorted(self._index)

    def total_bytes(self) -> int:
        with self._lock:
            return sum(int(e.get("bytes", 0)) for e in self._index.values())

    def __len__(self) -> int:
        return len(self._index)

    # -- load/store -----------------------------------------------------

    def _partition_path(self, key: str) -> Path:
        return self.root / "facts-{}.pkl".format(key[:32])

    def load(self, key: str) -> Optional[FactBundle]:
        """The bundle stored under *key*, or ``None`` (counted as a miss,
        a corrupt file, or a schema/version mismatch).

        A hit bumps the LRU clock in memory only; the next store, drop,
        eviction or :meth:`flush` writes it to the index.

        Raises :class:`OSError` only for whole-store I/O failure (the
        chaos ``factstore.load`` point simulates it); a *readable but
        corrupt* partition is always a miss, never an exception.
        """
        chaos.fire("factstore.load", key=key[:12])
        with self._lock:
            entry = self._index.get(key)
            if entry is None:
                _counter("miss").inc()
                obs.trace_note("factstore", "miss")
                return None
            path = self.root / entry["file"]
            if chaos.fire("factstore.corrupt", key=key[:12]) is not None:
                self._truncate_partition(path)
            with obs.span("serve.factcache.load", key=key[:12]):
                try:
                    with open(path, "rb") as f:
                        bundle = pickle.load(f)
                except (OSError, pickle.UnpicklingError, EOFError,
                        AttributeError, ImportError):
                    _counter("corrupt").inc()
                    obs.trace_note("factstore", "corrupt")
                    self._drop(key)
                    return None
            if not bundle_is_current(bundle) or bundle.module_hash != key:
                # Older schema, older package, or a hash collision in the
                # truncated file name: all read as misses.
                _counter("corrupt").inc()
                obs.trace_note("factstore", "corrupt")
                self._drop(key)
                return None
            self._touch(key)
            _counter("hit").inc()
            obs.trace_note("factstore", "hit")
            return bundle

    @staticmethod
    def _truncate_partition(path: Path) -> None:
        """Chaos ``factstore.corrupt``: chop the partition mid-byte."""
        try:
            size = path.stat().st_size
            with open(path, "r+b") as f:
                f.truncate(max(1, size // 2))
        except OSError:
            pass

    def store(self, bundle: FactBundle) -> None:
        """Persist *bundle* under its module hash; evict over budget.

        Raises :class:`OSError` on write failure (the chaos
        ``factstore.store`` point simulates it); the session layer
        treats that as degraded mode, never as a lost answer.
        """
        chaos.fire("factstore.store", key=bundle.module_hash[:12])
        key = bundle.module_hash
        path = self._partition_path(key)
        with self._lock:
            with obs.span("serve.factcache.store", key=key[:12],
                          configs=bundle.n_configs()):
                tmp = path.with_suffix(".tmp")
                with open(tmp, "wb") as f:
                    pickle.dump(bundle, f, protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp, path)
            self._index[key] = {
                "file": path.name,
                "bytes": path.stat().st_size,
                "module": bundle.module_name,
                "clock": 0,
            }
            self._touch(key)
            _counter("store").inc()
            self._evict_over_budget(protect=key)
            self._write_index()
            metrics.registry().gauge("serve.factcache.bytes").set(
                sum(int(e.get("bytes", 0)) for e in self._index.values()))

    def _drop(self, key: str) -> None:
        entry = self._index.pop(key, None)
        if entry is not None:
            try:
                (self.root / entry["file"]).unlink()
            except OSError:
                pass
            self._write_index()

    def _evict_over_budget(self, protect: Optional[str] = None) -> None:
        """LRU-evict partitions until the byte budget holds.

        The just-stored key is protected so a single oversized bundle
        does not evict itself into a store/load ping-pong.
        """
        if self.max_bytes is None:
            return
        total = sum(int(e.get("bytes", 0)) for e in self._index.values())
        victims = sorted(
            (k for k in self._index if k != protect),
            key=lambda k: int(self._index[k].get("clock", 0)))
        for key in victims:
            if total <= self.max_bytes:
                break
            entry = self._index.pop(key)
            total -= int(entry.get("bytes", 0))
            try:
                (self.root / entry["file"]).unlink()
            except OSError:
                pass
            _counter("evict").inc()

    def drop(self, key: str) -> None:
        """Remove one partition (used by tests and cache maintenance)."""
        with self._lock:
            self._drop(key)

    def flush(self) -> None:
        """Write the index to disk (graceful-drain hook).

        Every mutation already writes the index; hits do not, so this
        writes the LRU clock of every hit since the last mutation.
        After degraded-mode I/O failures it is also the last chance to
        leave a consistent index behind before exit.
        """
        with self._lock:
            try:
                self._write_index()
            except OSError:
                pass  # drain must not die on a still-broken disk
