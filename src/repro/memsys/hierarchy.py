"""Memory models: per-CPU timing for loads, stores, and commit broadcasts.

Two implementations share one interface:

* :class:`HierarchicalMemory` — the paper's machine: private L1 + L2 per
  CPU, a shared split-transaction bus, and main memory.  Latency of an
  access is where it hits; misses also contend for the bus.
* :class:`FlatMemory` — a 1-cycle model for functional tests, so semantic
  test suites run fast and deterministically without cache effects.

Both are *timing only*; data correctness never depends on them.
"""

from __future__ import annotations

from repro.common.addr import line_of
from repro.memsys.bus import Bus
from repro.memsys.cache import Cache


class MemoryModel:
    """Interface both timing models implement."""

    #: Snapshot state (repro.sim.snapshot); the flat model has none.
    _state = ()

    def access(self, cpu_id, addr, is_write, now):
        """Cycles for CPU ``cpu_id`` to access ``addr`` starting at ``now``."""
        raise NotImplementedError

    def commit_broadcast(self, cpu_id, line_addrs, now):
        """Cycles for ``cpu_id`` to broadcast its committed write-set and
        invalidate remote copies."""
        raise NotImplementedError

    def arbitrate_commit(self, now):
        """Cycles to win commit ordering (the TCC commit token)."""
        raise NotImplementedError

    def flush_stats(self):
        """Fold deferred event counts into the stats tree (run end)."""


class FlatMemory(MemoryModel):
    """Every access costs one cycle; broadcasts are free."""

    def access(self, cpu_id, addr, is_write, now):
        return 1

    def commit_broadcast(self, cpu_id, line_addrs, now):
        return 1

    def arbitrate_commit(self, now):
        return 1


class HierarchicalMemory(MemoryModel):
    """Private L1/L2 caches per CPU over a shared bus."""

    #: Snapshot state; ``residency`` is derived (see :meth:`_rederive`).
    _state = ("bus", "l1", "l2")

    def __init__(self, config, stats):
        self._config = config
        self._stats = stats
        self.bus = Bus(config, stats)
        #: line -> insertion-ordered dict of caches holding it.  Snoops
        #: (store upgrades, commit broadcasts) walk only a line's actual
        #: holders instead of every cache in the machine — same
        #: invalidations, same counters, O(holders) instead of
        #: O(n_cpus) per snooped line.
        self.residency = {}
        self.l1 = []
        self.l2 = []
        for cpu_id in range(config.n_cpus):
            scope = stats.scope(f"cpu{cpu_id}")
            self.l1.append(
                Cache("l1", config.l1_size, config.l1_assoc,
                      config.line_size, scope,
                      registry=self.residency, owner=cpu_id))
            self.l2.append(
                Cache("l2", config.l2_size, config.l2_assoc,
                      config.line_size, scope,
                      registry=self.residency, owner=cpu_id))
        # Per-access constants, resolved once: `access` runs for every
        # simulated load/store, and five attribute hops through the
        # config dataclass cost more than the cache probe itself.
        self._eager = config.detection == "eager"
        self._l1_latency = config.l1_latency
        self._l2_latency = config.l2_latency
        self._mem_latency = config.mem_latency
        self._line_size = config.line_size

    def access(self, cpu_id, addr, is_write, now):
        extra = 0
        if is_write and self._eager:
            # Eager machines acquire exclusive ownership on stores; remote
            # copies are invalidated, and the upgrade costs a bus grant if
            # anyone actually held the line.
            extra = self._invalidate_remote(cpu_id, addr, now)
        l1 = self.l1[cpu_id]
        if l1.lookup(addr):
            return self._l1_latency + extra
        if self.l2[cpu_id].lookup(addr):
            l1.insert(addr)
            return self._l2_latency + extra
        # Miss to memory: arbitrate for the bus, transfer the line, pay the
        # DRAM latency, then fill both cache levels.
        l2_latency = self._l2_latency
        done = self.bus.line_transfer(now + l2_latency)
        done += self._mem_latency
        self.l2[cpu_id].insert(addr)
        l1.insert(addr)
        return done - now + extra

    def _invalidate_remote(self, cpu_id, addr, now):
        """Invalidate remote copies of the line holding ``addr``; returns
        the upgrade latency (one bus grant if any copy existed)."""
        holders = self.residency.get(addr - addr % self._line_size)
        if not holders:
            return 0
        for cache in holders:
            if cache.owner != cpu_id:
                break
        else:
            return 0
        # Invalidating edits ``holders``: walk a copy.
        for cache in [c for c in holders if c.owner != cpu_id]:
            cache.invalidate(addr)
        return self.bus.acquire(now, 1) - now

    def commit_broadcast(self, cpu_id, line_addrs, now):
        """Broadcast the committed write-set over the bus.

        Each line occupies the bus for one transfer; remote caches snoop
        and invalidate their copies (so later remote reads miss and fetch
        the committed data).
        """
        lines = sorted({line_of(a, self._config.line_size)
                        for a in line_addrs})
        if not lines:
            return 1
        done = self.bus.acquire(
            now, self._config.line_transfer_cycles * len(lines))
        residency = self.residency
        for line in lines:
            holders = residency.get(line)
            if not holders:
                continue
            for cache in [c for c in holders if c.owner != cpu_id]:
                cache.invalidate(line)
        return done - now

    def arbitrate_commit(self, now):
        """Winning the commit token costs one bus arbitration."""
        done = self.bus.acquire(now, 1)
        return done - now

    def flush_stats(self):
        self.bus.flush_stats()
        for cache in self.l1:
            cache.flush_stats()
        for cache in self.l2:
            cache.flush_stats()

    def _rederive(self):
        """Rebuild the residency registry from the caches' contents
        after a snapshot load, walking only the sets each cache has
        allocated (the load already dropped sets created after the
        capture).  Holder order may differ from the live run's, but it
        only orders invalidations of distinct caches, which commute."""
        self.residency.clear()
        for cache in self.l1 + self.l2:
            for cache_set in cache._sets.values():
                for line in cache_set:
                    self.residency.setdefault(line, {})[cache] = True


def make_memory_model(config, stats):
    """Build the memory model selected by ``config.timing`` and
    ``config.coherence``."""
    if not config.timing:
        return FlatMemory()
    if config.coherence == "msi":
        from repro.memsys.coherence import MsiMemory

        return MsiMemory(config, stats)
    return HierarchicalMemory(config, stats)
