"""Machine cost model: cycles = instructions + load latency.

The paper measured simulated execution times on a DEC Alpha 3000-500
(21064) with the primary cache enlarged to 32 KB to suppress conflict
noise.  We keep exactly the part of that machine RLE interacts with: every
executed instruction costs one cycle, and each memory *load* additionally
costs a hit or miss latency determined by a direct-mapped cache.  Stores
update the cache but add no cycles (write-buffer assumption).

Eliminating a redundant load therefore saves ``1 + latency`` cycles — the
same first-order effect the paper's Figure 8 reports.
"""

from typing import Iterable, Optional


class CacheSim:
    """Direct-mapped cache over simulated byte addresses."""

    def __init__(self, size: int = 32 * 1024, line_size: int = 32):
        assert size % line_size == 0
        self.size = size
        self.line_size = line_size
        self.n_lines = size // line_size
        self._tags = [-1] * self.n_lines
        self.hits = 0
        self.misses = 0

    def access(self, addr: int) -> bool:
        """Touch *addr*; returns True on hit."""
        line = addr // self.line_size
        index = line % self.n_lines
        if self._tags[index] == line:
            self.hits += 1
            return True
        self._tags[index] = line
        self.misses += 1
        return False

    def reset(self) -> None:
        self._tags = [-1] * self.n_lines
        self.hits = 0
        self.misses = 0


class MachineModel:
    """Accumulates cycles from instruction counts and cache behaviour."""

    #: extra cycles for a load that hits the primary cache
    HIT_LATENCY = 2
    #: extra cycles for a load that misses (21064-ish miss penalty)
    MISS_LATENCY = 12
    #: call/return overhead beyond the call instruction itself: argument
    #: shuffling, callee-save spills/refills, jsr/ret latency
    CALL_OVERHEAD = 10
    #: extra dispatch cost of a method invocation (type descriptor and
    #: method-suite loads before the indirect jump)
    METHOD_DISPATCH_OVERHEAD = 6

    def __init__(self, cache: Optional[CacheSim] = None):
        self.cache = cache or CacheSim()
        self.cycles = 0

    def instruction(self, count: int = 1) -> None:
        self.cycles += count

    def load(self, addr: int) -> None:
        if self.cache.access(addr):
            self.cycles += self.HIT_LATENCY
        else:
            self.cycles += self.MISS_LATENCY

    def store(self, addr: int) -> None:
        self.cache.access(addr)

    def replay(self, accesses: Iterable[int]) -> None:
        """Feed a logged access stream through the cache: a load is its
        address, a store its complement ``~addr``.  The same cycles, hits
        and misses as calling :meth:`load`/:meth:`store` per entry, with
        the cache lookup inlined."""
        cache = self.cache
        tags, line_size, n_lines = cache._tags, cache.line_size, cache.n_lines
        load_hits = load_misses = store_hits = store_misses = 0
        for entry in accesses:
            if entry >= 0:
                line = entry // line_size
                index = line % n_lines
                if tags[index] == line:
                    load_hits += 1
                else:
                    tags[index] = line
                    load_misses += 1
            else:
                line = ~entry // line_size
                index = line % n_lines
                if tags[index] == line:
                    store_hits += 1
                else:
                    tags[index] = line
                    store_misses += 1
        cache.hits += load_hits + store_hits
        cache.misses += load_misses + store_misses
        self.cycles += load_hits * self.HIT_LATENCY + load_misses * self.MISS_LATENCY

    def reset(self) -> None:
        self.cycles = 0
        self.cache.reset()
