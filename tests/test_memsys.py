"""Unit tests: memory image, caches, bus, hierarchy timing."""

import pytest

from repro.common.errors import MemoryError_
from repro.common.params import paper_config
from repro.common.stats import Stats
from repro.memsys.bus import Bus
from repro.memsys.cache import Cache
from repro.memsys.hierarchy import (
    FlatMemory,
    HierarchicalMemory,
    make_memory_model,
)
from repro.memsys.memory import MemoryImage


class TestMemoryImage:
    def test_read_default_zero(self):
        assert MemoryImage().read(0x1000) == 0

    def test_write_read(self):
        memory = MemoryImage()
        memory.write(0x1000, 42)
        assert memory.read(0x1000) == 42

    def test_unaligned_rejected(self):
        memory = MemoryImage()
        with pytest.raises(MemoryError_):
            memory.read(0x1001)
        with pytest.raises(MemoryError_):
            memory.write(0x1002, 1)

    def test_block_ops(self):
        memory = MemoryImage()
        memory.write_block(0x100, [1, 2, 3])
        assert memory.read_block(0x100, 3) == [1, 2, 3]
        assert memory.read_block(0x100, 4) == [1, 2, 3, 0]

    def test_snapshot_is_copy(self):
        memory = MemoryImage()
        memory.write(0x100, 5)
        snap = memory.snapshot()
        memory.write(0x100, 6)
        assert snap[0x100] == 5


class TestBus:
    def test_uncontended_acquire(self):
        bus = Bus(paper_config(), Stats())
        done = bus.acquire(now=100, hold_cycles=2)
        # arbitration (3) + transfer (2)
        assert done == 105

    def test_contention_queues(self):
        bus = Bus(paper_config(), Stats())
        first = bus.acquire(0, 10)
        second = bus.acquire(1, 10)
        assert second >= first + 10

    def test_line_transfer_uses_config(self):
        config = paper_config()
        bus = Bus(config, Stats())
        done = bus.line_transfer(0)
        assert done == config.bus_arbitration + config.line_transfer_cycles

    def test_stats_recorded(self):
        stats = Stats()
        bus = Bus(paper_config(), stats)
        bus.acquire(0, 4)
        bus.flush_stats()
        assert stats.get("bus.transactions") == 1
        assert stats.get("bus.busy_cycles") == 4

    def test_flush_grows_every_key_once(self):
        """Counts reach the stats tree on flush: all three keys on the
        first transaction, a zero count included, and never twice."""
        stats = Stats()
        bus = Bus(paper_config(), stats)
        bus.flush_stats()
        assert stats.matching("bus") == {}
        bus.acquire(0, 0)
        assert stats.matching("bus") == {}
        bus.flush_stats()
        bus.flush_stats()
        assert stats.matching("bus") == {
            "bus.transactions": 1, "bus.busy_cycles": 0,
            "bus.wait_cycles": paper_config().bus_arbitration}


class TestCache:
    def make(self, size=1024, assoc=2, line=32):
        return Cache("l1", size, assoc, line, Stats().scope("c"))

    def test_miss_then_hit(self):
        cache = self.make()
        assert not cache.lookup(0x100)
        cache.insert(0x100)
        assert cache.lookup(0x104)  # same line

    def test_lru_eviction(self):
        cache = self.make(size=64, assoc=2, line=32)  # one set, two ways
        cache.insert(0x000)
        cache.insert(0x020)
        cache.lookup(0x000)            # make 0x20 the LRU victim
        victim = cache.insert(0x040)
        assert victim == 0x020
        assert cache.contains(0x000)
        assert not cache.contains(0x020)

    def test_invalidate(self):
        cache = self.make()
        cache.insert(0x100)
        assert cache.invalidate(0x100)
        assert not cache.invalidate(0x100)
        assert not cache.contains(0x100)

    def test_sets_isolate_addresses(self):
        cache = self.make(size=128, assoc=1, line=32)  # 4 sets
        cache.insert(0x000)
        cache.insert(0x020)  # different set
        assert cache.contains(0x000) and cache.contains(0x020)


class TestHierarchy:
    def test_factory_respects_timing_flag(self):
        stats = Stats()
        assert isinstance(
            make_memory_model(paper_config(), stats), HierarchicalMemory)
        assert isinstance(
            make_memory_model(paper_config(timing=False), stats), FlatMemory)

    def test_l1_hit_costs_one(self):
        config = paper_config(n_cpus=2)
        mem = HierarchicalMemory(config, Stats())
        mem.access(0, 0x1000, False, 0)   # cold miss, fills caches
        assert mem.access(0, 0x1000, False, 50) == config.l1_latency

    def test_miss_costs_memory_latency(self):
        config = paper_config(n_cpus=2)
        mem = HierarchicalMemory(config, Stats())
        latency = mem.access(0, 0x1000, False, 0)
        assert latency >= config.mem_latency

    def test_l2_hit_after_l1_pressure(self):
        config = paper_config(n_cpus=1)
        mem = HierarchicalMemory(config, Stats())
        mem.access(0, 0x1000, False, 0)
        # Evict 0x1000 from L1 by filling its set (same set index).
        set_span = config.l1_sets * config.line_size
        for i in range(1, config.l1_assoc + 1):
            mem.access(0, 0x1000 + i * set_span, False, 0)
        latency = mem.access(0, 0x1000, False, 1000)
        assert latency == config.l2_latency

    def test_commit_broadcast_invalidates_remote(self):
        config = paper_config(n_cpus=2)
        mem = HierarchicalMemory(config, Stats())
        mem.access(1, 0x2000, False, 0)
        assert mem.l1[1].contains(0x2000)
        mem.commit_broadcast(0, {0x2000}, 100)
        assert not mem.l1[1].contains(0x2000)
        assert not mem.l2[1].contains(0x2000)

    def test_commit_broadcast_cost_scales_with_lines(self):
        config = paper_config(n_cpus=2)
        mem = HierarchicalMemory(config, Stats())
        one = mem.commit_broadcast(0, {0x1000}, 0)
        many = mem.commit_broadcast(
            0, {0x1000 + i * config.line_size for i in range(10)}, 10_000)
        assert many > one

    def test_eager_store_invalidates_remote_copy(self):
        config = paper_config(n_cpus=2, detection="eager",
                              versioning="undo_log")
        mem = HierarchicalMemory(config, Stats())
        mem.access(1, 0x3000, False, 0)
        assert mem.l1[1].contains(0x3000)
        mem.access(0, 0x3000, True, 100)
        assert not mem.l1[1].contains(0x3000)

    def test_flat_memory_constant(self):
        flat = FlatMemory()
        assert flat.access(0, 0x100, True, 0) == 1
        assert flat.commit_broadcast(0, {0x100}, 0) == 1
        assert flat.arbitrate_commit(0) == 1
