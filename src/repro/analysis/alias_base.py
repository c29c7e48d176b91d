"""Common interface of the three alias analyses.

The paper's three analyses share one query shape: *may these two access
paths refer to the same location?*  They differ in the **type oracle**
used at the leaves:

* TypeDecl uses declared-type compatibility (subtype-set intersection);
* SMTypeRefs uses the pruned ``TypeRefsTable`` of selective merging;
* FieldTypeDecl / SMFieldTypeRefs wrap either oracle in the structural
  case analysis of Table 2.

All analyses are *flow-insensitive* and query-cached (the static metric
asks O(e²) pair queries; caching makes that tractable, as the paper notes
in Section 2.5).  Access paths are interned with dense integer uids
(:mod:`repro.ir.access_path`), so the cache keys on an unordered
``(uid, uid)`` pair — no tree hashing on the query path — and
:meth:`AliasAnalysis.may_alias_canonical` lets pair-counting clients that
already hold canonical paths skip re-canonicalisation entirely.

Each instance counts its own cache hits and misses for
``cache_stats()`` (``cache_clear()`` zeroes them) and adds every query
to the process-wide ``alias.cache.hits`` / ``alias.cache.misses``
counters of its analysis name, which only ever grow.  The own counts
are plain ints, since an analysis answers one thread's queries; the
shared counters take their lock, since analyses of one name may count
in several serving threads at once.
"""

from typing import Dict, Tuple

from repro.ir.access_path import AccessPath, strip_index
from repro.obs import metrics
from repro.qa import guards


class TypeOracle:
    """Decides type-level compatibility of two APs (the TypeDecl role)."""

    name = "<oracle>"

    def types_compatible(self, p: AccessPath, q: AccessPath) -> bool:
        raise NotImplementedError


class AliasAnalysis:
    """May-alias over access paths, with memoisation.

    Subclasses implement :meth:`_may_alias`; callers use
    :meth:`may_alias`, which canonicalises subscript indices (alias
    analyses ignore them — Table 2 case 6) and caches symmetric pairs.
    """

    name = "<analysis>"

    def __init__(self, name: str = None) -> None:
        if name is not None:
            self.name = name
        self._cache: Dict[Tuple[int, int], bool] = {}
        self._hits = 0
        self._misses = 0
        registry = metrics.registry()
        self._total_hits = registry.counter("alias.cache.hits",
                                            analysis=self.name)
        self._total_misses = registry.counter("alias.cache.misses",
                                              analysis=self.name)

    def may_alias(self, p: AccessPath, q: AccessPath) -> bool:
        return self.may_alias_canonical(strip_index(p), strip_index(q))

    def may_alias_canonical(self, cp: AccessPath, cq: AccessPath) -> bool:
        """:meth:`may_alias` for paths already canonicalised by
        :func:`~repro.ir.access_path.strip_index`.

        The pair loops of the static metric canonicalise once while
        collecting references; this entry point lets them skip the
        (memoised, but not free) strip on each of the O(e²) queries.
        """
        key = (cp.uid, cq.uid) if cp.uid <= cq.uid else (cq.uid, cp.uid)
        cached = self._cache.get(key)
        if cached is not None:
            self._hits += 1
            self._total_hits.inc()
            return cached
        misses = self._misses + 1
        self._misses = misses
        self._total_misses.inc()
        # Guard hook on the miss (slow) path only: cache hits stay a
        # dict probe, and a guarded run that hangs inside the analyses
        # is necessarily generating fresh queries.
        if (misses & 4095) == 0:
            guards.check_active()
        result = self._may_alias(cp, cq)
        self._cache[key] = result
        return result

    def _may_alias(self, p: AccessPath, q: AccessPath) -> bool:
        raise NotImplementedError

    # -- cache introspection -------------------------------------------

    def cache_clear(self) -> None:
        """Drop all memoised answers and zero this instance's hit/miss
        counts (the process-wide counters keep their totals)."""
        self._cache.clear()
        self._hits = 0
        self._misses = 0

    def cache_stats(self) -> Dict[str, int]:
        """``{'hits', 'misses', 'size'}`` of the query cache."""
        return {
            "hits": self._hits,
            "misses": self._misses,
            "size": len(self._cache),
        }

    def __repr__(self) -> str:
        return "<{}>".format(self.name)
