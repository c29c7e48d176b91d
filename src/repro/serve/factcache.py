"""The on-disk fact store behind ``repro serve``.

One **partition** per module content hash: the data file
``facts-<key>.json`` (full 64-hex key) holding that module's
:class:`~repro.analysis.facts.FactBundle`.  Line 1 is a header,
``{"kind": "fact_partition", "schema": 4, "sha256": ...}``; the rest is
:meth:`~repro.analysis.facts.FactBundle.to_json`, and the digest covers
exactly those bytes.  So:

* an edit to one module only re-keys its own partition — untouched
  modules keep answering from disk;
* loading runs no code, and any damage — truncation, a flipped bit, a
  header, schema or build from elsewhere, a payload for another key —
  reads as a **miss** (``serve.factcache.corrupt``) that drops the file,
  never as a wrong bundle or an exception; the next store heals it;
* a byte budget LRU-evicts (``serve.factcache.evict``).

The directory is the index: opening the store lists ``facts-*.json``,
with sizes from ``stat`` and recency from mtimes, which every store and
hit stamps, so the LRU order survives restarts and crashes with nothing
to flush.  A store writes ``facts-<key>.tmp`` and renames it into
place; a kill before the rename leaves the ``.tmp``, which the next
open removes along with an older build's ``index.json`` and
``facts-*.pkl``, and a kill after it leaves a partition that verifies.

Counters (shared series in :mod:`repro.obs.metrics`):
``serve.factcache.hit`` / ``.miss`` / ``.store`` / ``.evict`` /
``.corrupt`` and the ``serve.factcache.bytes`` gauge.
"""

import hashlib
import json
import os
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.analysis.facts import FACTS_SCHEMA_VERSION, FactBundle
from repro.obs import core as obs
from repro.obs import metrics
from repro.qa import chaos

#: Default size cap: generous for corpora of small modules, small enough
#: that a forgotten daemon cannot eat a disk.
DEFAULT_MAX_BYTES = 256 * 1024 * 1024


def _counter(name: str):
    return metrics.registry().counter("serve.factcache." + name)


def _header(payload: bytes) -> dict:
    """Line 1 of the partition whose payload bytes are *payload*."""
    return {"kind": "fact_partition", "schema": FACTS_SCHEMA_VERSION,
            "sha256": hashlib.sha256(payload).hexdigest()}


def _encode(bundle: FactBundle) -> bytes:
    """*bundle*'s partition file: the header line, then the payload."""
    payload = json.dumps(bundle.to_json(), separators=(",", ":")).encode() \
        + b"\n"
    return json.dumps(_header(payload)).encode() + b"\n" + payload


def _decode(data: bytes) -> FactBundle:
    """The bundle in partition file *data*; :class:`ValueError` unless
    the header matches this schema and the payload's sha256 as read,
    and the payload is a bundle of this build."""
    head, _, payload = data.partition(b"\n")
    if json.loads(head) != _header(payload):
        raise ValueError("fact partition header or checksum mismatch")
    return FactBundle.from_json(json.loads(payload))


class FactStore:
    """Content-addressed, size-capped partition store for fact bundles."""

    def __init__(self, root: Path, max_bytes: Optional[int] = DEFAULT_MAX_BYTES):
        self.root = Path(root)
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        self.root.mkdir(parents=True, exist_ok=True)
        # Torn writes, and an older build's layout: outside any budget.
        for pattern in ("facts-*.tmp", "index.json", "index.tmp",
                        "facts-*.pkl"):
            for path in self.root.glob(pattern):
                _unlink(path)
        # key -> (mtime_ns, bytes): the directory listing, kept current.
        self._entries: Dict[str, Tuple[int, int]] = {}
        for path in self.root.glob("facts-*.json"):
            try:
                st = path.stat()
            except OSError:
                continue
            self._entries[path.stem[len("facts-"):]] = \
                (st.st_mtime_ns, st.st_size)
        self._clock = max((e[0] for e in self._entries.values()), default=0)

    # -- introspection --------------------------------------------------

    def keys(self) -> List[str]:
        with self._lock:
            return sorted(self._entries)

    def total_bytes(self) -> int:
        with self._lock:
            return self._total()

    def _total(self) -> int:
        return sum(size for _, size in self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)

    # -- load/store -----------------------------------------------------

    def _path(self, key: str) -> Path:
        return self.root / "facts-{}.json".format(key)

    def _touch(self, key: str, path: Path, size: int) -> None:
        """Stamp *path*'s mtime with the next tick of the LRU clock:
        wall-clock nanoseconds, bumped so no two stamps are equal."""
        self._clock = max(time.time_ns(), self._clock + 1)
        self._entries[key] = (self._clock, size)
        os.utime(path, ns=(self._clock, self._clock))

    def load(self, key: str) -> Optional[FactBundle]:
        """The bundle stored under *key*, or ``None`` (counted as a miss,
        or as corrupt: anything but a verified partition of this build
        for this key).

        A hit stamps the file's mtime, which is the LRU order.

        Raises :class:`OSError` only for whole-store I/O failure (the
        chaos ``factstore.load`` point simulates it); a *readable but
        damaged* partition is always a miss, never an exception.
        """
        chaos.fire("factstore.load", key=key[:12])
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                _counter("miss").inc()
                obs.trace_note("factstore", "miss")
                return None
            path = self._path(key)
            if chaos.fire("factstore.corrupt", key=key[:12]) is not None:
                _truncate(path)
            flip = chaos.fire("factstore.bitflip", key=key[:12])
            if flip is not None:
                _flip_bit(path, flip)
            with obs.span("serve.factcache.load", key=key[:12]):
                try:
                    bundle = _decode(path.read_bytes())
                    if bundle.module_hash != key:
                        raise ValueError("partition holds another key")
                    self._touch(key, path, entry[1])
                except (OSError, ValueError):
                    _counter("corrupt").inc()
                    obs.trace_note("factstore", "corrupt")
                    self._drop(key)
                    return None
            _counter("hit").inc()
            obs.trace_note("factstore", "hit")
            return bundle

    def store(self, bundle: FactBundle) -> None:
        """Persist *bundle* under its module hash; evict over budget.

        Raises :class:`OSError` on write failure (the chaos
        ``factstore.store`` point simulates it); the session layer
        treats that as degraded mode, never as a lost answer.
        """
        chaos.fire("factstore.store", key=bundle.module_hash[:12])
        key = bundle.module_hash
        path = self._path(key)
        with self._lock:
            with obs.span("serve.factcache.store", key=key[:12],
                          configs=bundle.n_configs()):
                data = _encode(bundle)
                tmp = path.with_suffix(".tmp")
                tmp.write_bytes(data)
                os.replace(tmp, path)
                self._touch(key, path, len(data))
            _counter("store").inc()
            metrics.registry().gauge("serve.factcache.bytes").set(
                self._evict_over_budget(protect=key))

    def _drop(self, key: str) -> None:
        if self._entries.pop(key, None) is not None:
            _unlink(self._path(key))

    def _evict_over_budget(self, protect: str) -> int:
        """LRU-evict partitions until the byte budget holds; returns the
        bytes left.

        The just-stored key is protected so a single oversized bundle
        does not evict itself into a store/load ping-pong.
        """
        total = self._total()
        if self.max_bytes is None or total <= self.max_bytes:
            return total
        victims = sorted((k for k in self._entries if k != protect),
                         key=lambda k: (self._entries[k][0], k))
        for key in victims:
            if total <= self.max_bytes:
                break
            total -= self._entries[key][1]
            self._drop(key)
            _counter("evict").inc()
        return total

    def drop(self, key: str) -> None:
        """Remove one partition (used by tests and cache maintenance)."""
        with self._lock:
            self._drop(key)


def _unlink(path: Path) -> None:
    try:
        path.unlink()
    except OSError:
        pass


def _truncate(path: Path) -> None:
    """Chaos ``factstore.corrupt``: chop the partition mid-byte."""
    try:
        size = path.stat().st_size
        with open(path, "r+b") as f:
            f.truncate(max(1, size // 2))
    except OSError:
        pass


def _flip_bit(path: Path, rule: chaos.FaultRule) -> None:
    """Chaos ``factstore.bitflip``: flip one bit, at a position drawn
    from the fired rule's seeded stream."""
    try:
        data = bytearray(path.read_bytes())
        if data:
            bit = chaos.draw(rule, len(data) * 8)
            data[bit // 8] ^= 1 << (bit % 8)
            path.write_bytes(bytes(data))
    except OSError:
        pass
