"""An MSI snooping-coherence timing model (optional substrate upgrade).

The paper's machines keep caches coherent over the bus and reuse the
protocol for conflict detection (§2.2).  The default
:class:`~repro.memsys.hierarchy.HierarchicalMemory` abstracts coherence
to "misses go to memory, commits broadcast-invalidate"; this module
models the protocol itself:

* per-line **M/S/I** state per CPU, tracked machine-wide;
* read misses served **cache-to-cache** from a Modified owner (a bus
  transfer, cheaper than DRAM) with the owner downgrading to Shared;
* write hits on Shared lines paying a bus **upgrade** that invalidates
  the other sharers;
* evictions of Modified lines writing back over the bus.

Select with ``SystemConfig(coherence="msi")``; the default ("simple")
keeps the original model.  Functional results are identical either way —
this is timing fidelity only — which the ablation benchmark checks.
"""

from __future__ import annotations

from repro.common.addr import line_of
from repro.memsys.hierarchy import HierarchicalMemory

MODIFIED = "M"
SHARED = "S"
# Invalid = absence from the state map.


class MsiMemory(HierarchicalMemory):
    """MSI over the private two-level hierarchies of the base model."""

    _state = HierarchicalMemory._state + ("_states",)

    def __init__(self, config, stats):
        super().__init__(config, stats)
        #: line -> {cpu: MODIFIED | SHARED}
        self._states = {}
        self._msi_stats = stats.scope("msi")

    # -- state helpers -----------------------------------------------------

    def _holders(self, line):
        return self._states.setdefault(line, {})

    def _owner(self, line):
        for cpu, state in self._holders(line).items():
            if state == MODIFIED:
                return cpu
        return None

    def _drop(self, line, cpu):
        holders = self._holders(line)
        holders.pop(cpu, None)

    # -- the access path ------------------------------------------------------

    def access(self, cpu_id, addr, is_write, now):
        config = self._config
        line = line_of(addr, config.line_size)
        holders = self._holders(line)
        state = holders.get(cpu_id)
        resident = self.l1[cpu_id].lookup(addr) or self.l2[cpu_id].lookup(addr)
        if resident and state is None:
            # The timing caches kept the line but coherence lost track
            # (e.g. after external invalidation bookkeeping): treat as miss.
            resident = False

        if not is_write:
            if resident:
                self._msi_stats.add("read_hits")
                return config.l1_latency if self.l1[cpu_id].contains(addr) \
                    else config.l2_latency
            return self._read_miss(cpu_id, line, addr, now)

        # Write.
        if resident and state == MODIFIED:
            self._msi_stats.add("write_hits")
            return config.l1_latency if self.l1[cpu_id].contains(addr) \
                else config.l2_latency
        if resident and state == SHARED:
            # Upgrade: invalidate the other sharers over the bus.
            done = self.bus.acquire(now, 1)
            self._invalidate_others(line, cpu_id)
            holders[cpu_id] = MODIFIED
            self._msi_stats.add("upgrades")
            return done - now + config.l1_latency
        return self._write_miss(cpu_id, line, addr, now)

    def _read_miss(self, cpu_id, line, addr, now):
        config = self._config
        owner = self._owner(line)
        if owner is not None and owner != cpu_id:
            # Cache-to-cache transfer; the owner downgrades to Shared.
            done = self.bus.line_transfer(now + config.l2_latency)
            self._holders(line)[owner] = SHARED
            self._msi_stats.add("cache_to_cache")
            latency = done - now
        else:
            done = self.bus.line_transfer(now + config.l2_latency)
            latency = done - now + config.mem_latency
            self._msi_stats.add("memory_reads")
        self._fill(cpu_id, addr, now)
        self._holders(line)[cpu_id] = SHARED
        return latency

    def _write_miss(self, cpu_id, line, addr, now):
        config = self._config
        owner = self._owner(line)
        if owner is not None and owner != cpu_id:
            done = self.bus.line_transfer(now + config.l2_latency)
            latency = done - now
            self._msi_stats.add("cache_to_cache")
        else:
            done = self.bus.line_transfer(now + config.l2_latency)
            latency = done - now + config.mem_latency
            self._msi_stats.add("memory_reads")
        self._invalidate_others(line, cpu_id)
        self._fill(cpu_id, addr, now)
        self._holders(line)[cpu_id] = MODIFIED
        return latency

    def _fill(self, cpu_id, addr, now):
        """Bring the line into both cache levels, writing back any
        Modified victim."""
        for cache in (self.l2[cpu_id], self.l1[cpu_id]):
            victim = cache.insert(addr)
            if victim is not None and cache is self.l2[cpu_id]:
                holders = self._holders(victim)
                if holders.get(cpu_id) == MODIFIED:
                    # Dirty eviction: write back over the bus.
                    self.bus.line_transfer(now)
                    self._msi_stats.add("writebacks")
                self._drop(victim, cpu_id)

    def _invalidate_others(self, line, cpu_id):
        holders = self._holders(line)
        for other in [c for c in holders if c != cpu_id]:
            del holders[other]
            self.l1[other].invalidate(line)
            self.l2[other].invalidate(line)
            self._msi_stats.add("invalidations")

    # -- HTM hooks --------------------------------------------------------------

    def commit_broadcast(self, cpu_id, line_addrs, now):
        """The committed write-set claims ownership line by line."""
        lines = sorted({line_of(a, self._config.line_size)
                        for a in line_addrs})
        if not lines:
            return 1
        done = self.bus.acquire(
            now, self._config.line_transfer_cycles * len(lines))
        for line in lines:
            self._invalidate_others(line, cpu_id)
            if self._holders(line).get(cpu_id) is not None:
                self._holders(line)[cpu_id] = MODIFIED
        return done - now
