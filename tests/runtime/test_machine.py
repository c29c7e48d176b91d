"""Cache simulator and cost model tests."""

import random

from repro.runtime.machine import CacheSim, MachineModel


class TestCacheSim:
    def test_cold_miss_then_hit(self):
        cache = CacheSim(size=1024, line_size=32)
        assert not cache.access(0)
        assert cache.access(0)
        assert cache.access(31)  # same line
        assert not cache.access(32)  # next line

    def test_direct_mapped_conflict(self):
        cache = CacheSim(size=1024, line_size=32)
        cache.access(0)
        cache.access(1024)  # maps to the same index, evicts
        assert not cache.access(0)

    def test_counts(self):
        cache = CacheSim(size=1024, line_size=32)
        for addr in (0, 0, 64, 64, 128):
            cache.access(addr)
        assert cache.hits == 2
        assert cache.misses == 3

    def test_reset(self):
        cache = CacheSim()
        cache.access(0)
        cache.reset()
        assert cache.hits == 0 and cache.misses == 0
        assert not cache.access(0)

    def test_default_geometry(self):
        cache = CacheSim()
        assert cache.size == 32 * 1024  # the paper's enlarged primary cache
        assert cache.n_lines * cache.line_size == cache.size


class TestMachineModel:
    def test_load_latencies(self):
        m = MachineModel(CacheSim(size=1024, line_size=32))
        m.load(0)  # miss
        assert m.cycles == m.MISS_LATENCY
        m.load(0)  # hit
        assert m.cycles == m.MISS_LATENCY + m.HIT_LATENCY

    def test_store_updates_cache_without_cycles(self):
        m = MachineModel(CacheSim(size=1024, line_size=32))
        m.store(0)
        assert m.cycles == 0
        m.load(0)  # now a hit thanks to the store
        assert m.cycles == m.HIT_LATENCY

    def test_instruction_counting(self):
        m = MachineModel()
        m.instruction(5)
        assert m.cycles == 5

    def test_reset(self):
        m = MachineModel()
        m.load(0)
        m.reset()
        assert m.cycles == 0

    def test_replay_matches_per_access_model(self):
        # The interpreter replays its access log through one inlined
        # loop; load/store per entry is the reference it must match.
        rng = random.Random(7)
        log = [rng.randrange(0, 4096) for _ in range(5000)]
        log = [addr if rng.random() < 0.7 else ~addr for addr in log]
        inlined = MachineModel(CacheSim(size=1024, line_size=32))
        inlined.replay(log)
        reference = MachineModel(CacheSim(size=1024, line_size=32))
        for entry in log:
            if entry >= 0:
                reference.load(entry)
            else:
                reference.store(~entry)
        assert inlined.cycles == reference.cycles
        assert (inlined.cache.hits, inlined.cache.misses) == (
            reference.cache.hits, reference.cache.misses)
        assert inlined.cache._tags == reference.cache._tags
