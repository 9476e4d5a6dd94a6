"""Set-associative cache timing model.

These caches model *timing and capacity only*: they track which line
addresses are resident and in what LRU order, while data values live in
the :class:`~repro.memsys.memory.MemoryImage` (plus the HTM's speculative
buffers).  Keeping data out of the timing model lets the same cache stand
under both versioning schemes without duplicating state.
"""

from __future__ import annotations

from collections import OrderedDict


class Cache:
    """An LRU set-associative cache of line addresses.

    Sets are allocated on first fill: ``_sets`` maps a set index to its
    ``OrderedDict`` of resident lines (oldest first), and a set no line
    was ever inserted into does not exist.  Probing a missing set is a
    miss with the usual counters, so the model is exactly an eager
    array of empty sets, while a machine builds, snapshots and restores
    only the sets a run touched (the paper's 16-CPU machine has 36,864).

    Every simulated load probes :meth:`lookup`, so the line/set math is
    inlined and the event counters are plain integer attributes bumped
    in place; :meth:`flush_stats` folds them into the stats tree (the
    engine calls it when a run ends, so finished machines always expose
    the usual ``l1.hits``-style counters).
    """

    #: Snapshot state (repro.sim.snapshot).  The shared registry is
    #: derived: the memory model rebuilds it from every cache's sets.
    _state = ("_sets", "n_hits", "n_misses", "n_evictions", "n_fills",
              "n_invalidations")

    def __init__(self, name, size_bytes, assoc, line_size, stats,
                 registry=None, owner=None):
        self.name = name
        self.assoc = assoc
        self.line_size = line_size
        self.n_sets = size_bytes // (line_size * assoc)
        self._sets = {}
        self._stats = stats.scope(name)
        #: Optional shared residency registry (line -> dict of caches
        #: holding it, used as an insertion-ordered set so snoop order
        #: is deterministic), kept exact by insert/invalidate/evict so
        #: the memory model can snoop only the caches that hold a line
        #: instead of sweeping every cache in the machine.
        self._registry = registry
        #: The registry key identifying this cache's CPU (snoops skip
        #: the requester's own caches).
        self.owner = owner
        self.n_hits = 0
        self.n_misses = 0
        self.n_evictions = 0
        self.n_fills = 0
        self.n_invalidations = 0

    def flush_stats(self):
        """Fold the locally-accumulated event counts into the stats tree
        and reset them, so repeated flushes (or multi-run reuse) never
        double-count.  Zero counts are skipped so the tree grows a key
        only for events that actually happened, exactly as per-event
        ``add`` calls would."""
        stats = self._stats
        for name, count in (("hits", self.n_hits),
                            ("misses", self.n_misses),
                            ("evictions", self.n_evictions),
                            ("fills", self.n_fills),
                            ("invalidations", self.n_invalidations)):
            if count:
                stats.add(name, count)
        self.n_hits = self.n_misses = 0
        self.n_evictions = self.n_fills = self.n_invalidations = 0

    def lookup(self, addr):
        """True (and LRU-touch) if the line holding ``addr`` is resident."""
        line_size = self.line_size
        line = addr - addr % line_size
        cache_set = self._sets.get((line // line_size) % self.n_sets)
        if cache_set is not None and line in cache_set:
            cache_set.move_to_end(line)
            self.n_hits += 1
            return True
        self.n_misses += 1
        return False

    def insert(self, addr):
        """Bring the line holding ``addr`` in; return the evicted line
        address, or ``None`` if no eviction was needed."""
        line_size = self.line_size
        line = addr - addr % line_size
        index = (line // line_size) % self.n_sets
        cache_set = self._sets.get(index)
        if cache_set is None:
            cache_set = self._sets[index] = OrderedDict()
        elif line in cache_set:
            cache_set.move_to_end(line)
            return None
        victim = None
        registry = self._registry
        if len(cache_set) >= self.assoc:
            victim, _ = cache_set.popitem(last=False)
            self.n_evictions += 1
            if registry is not None:
                holders = registry.get(victim)
                if holders is not None:
                    holders.pop(self, None)
                    if not holders:
                        del registry[victim]
        cache_set[line] = True
        self.n_fills += 1
        if registry is not None:
            holders = registry.get(line)
            if holders is None:
                registry[line] = {self: True}
            else:
                holders[self] = True
        return victim

    def invalidate(self, addr):
        """Drop the line holding ``addr`` if resident; True if it was."""
        line_size = self.line_size
        line = addr - addr % line_size
        cache_set = self._sets.get((line // line_size) % self.n_sets)
        if cache_set is not None and line in cache_set:
            del cache_set[line]
            self.n_invalidations += 1
            registry = self._registry
            if registry is not None:
                holders = registry.get(line)
                if holders is not None:
                    holders.pop(self, None)
                    if not holders:
                        del registry[line]
            return True
        return False

    def contains(self, addr):
        """Presence check without touching LRU state or stats."""
        line_size = self.line_size
        line = addr - addr % line_size
        cache_set = self._sets.get((line // line_size) % self.n_sets)
        return cache_set is not None and line in cache_set

    def resident_lines(self):
        """All resident line addresses (diagnostics / tests)."""
        lines = []
        for index in sorted(self._sets):
            lines.extend(self._sets[index])
        return lines
