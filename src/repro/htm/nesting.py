"""Hardware nesting-scheme models (paper Figure 4 and Section 6.3).

Functionally, read-/write-set tracking lives in :mod:`repro.htm.rwset`;
these classes model the *capacity and merge-cost* consequences of how the
cache physically tracks multiple nested transactions:

* :class:`MultiTrackingScheme` (Fig. 4a) — every resident transactional
  line carries R/W bits for each nesting level.  Capacity is one cache
  slot per distinct line; closed-nested commit must merge (OR) the bit
  vectors, which the hardware does lazily.
* :class:`AssociativityScheme` (Fig. 4b) — each (line, level) pair
  occupies its own way in the set, so a line written by three nested
  transactions occupies three ways; capacity runs out when a set's ways
  are exhausted.  Rollback gang-invalidates NL = i entries; closed commit
  relabels NL = i to NL = i-1, merging duplicates lazily.

Overflow raises :class:`~repro.common.errors.CapacityAbort`, the
architectural hook behind which a virtualization scheme would sit
(paper §6.3.3).

The geometry modelled is the private L2 (the larger of the two levels in
which the paper tracks transactional state).
"""

from __future__ import annotations

from collections import defaultdict

from repro.common.errors import CapacityAbort


class NestingSchemeBase:
    """Common bookkeeping for both schemes."""

    #: Accessor kinds.
    READ = "read"
    WRITE = "write"

    def __init__(self, config, stats):
        self._config = config
        self._stats = stats
        self.n_sets = config.l2_sets
        self.assoc = config.l2_assoc
        # note_access runs per transactional load/store; keep its line
        # math free of config-attribute hops.
        self._line_size = config.line_size

    def _set_index(self, line_addr):
        return (line_addr // self._line_size) % self.n_sets

    def note_access(self, level, addr, kind):
        """Record a transactional access; raise CapacityAbort on overflow."""
        raise NotImplementedError

    def commit_closed(self, level):
        """Merge level into level-1.  Returns merge work units (lines)."""
        raise NotImplementedError

    def commit_open(self, level):
        """Gang-clear level's tracking state (writes go to memory)."""
        raise NotImplementedError

    def rollback(self, level):
        """Gang-invalidate level's tracking state."""
        raise NotImplementedError

    def clear_all(self):
        raise NotImplementedError

    def footprint(self):
        """Number of (line[, level]) tracking entries currently held."""
        raise NotImplementedError


class MultiTrackingScheme(NestingSchemeBase):
    """Per-line R/W bit vectors over all nesting levels (Fig. 4a)."""

    #: Snapshot state (repro.sim.snapshot).
    _state = ("_lines", "_sets")

    def __init__(self, config, stats):
        super().__init__(config, stats)
        # line -> [read_mask, write_mask]; presence means the line holds
        # transactional state and pins a cache slot.
        self._lines = {}
        self._sets = defaultdict(set)  # set index -> resident tx lines

    def note_access(self, level, addr, kind):
        line = addr - addr % self._line_size
        bit = 1 << (level - 1)
        if line not in self._lines:
            set_index = self._set_index(line)
            if len(self._sets[set_index]) >= self.assoc:
                self._stats.add("nesting.overflows")
                raise CapacityAbort(
                    level, f"multi-tracking set {set_index} full")
            self._sets[set_index].add(line)
            self._lines[line] = [0, 0]
        masks = self._lines[line]
        masks[0 if kind == self.READ else 1] |= bit

    def _drop_if_clear(self, line):
        masks = self._lines[line]
        if not masks[0] and not masks[1]:
            del self._lines[line]
            self._sets[self._set_index(line)].discard(line)

    def commit_closed(self, level):
        bit = 1 << (level - 1)
        parent_bit = 1 << (level - 2) if level >= 2 else 0
        merged = 0
        for line in list(self._lines):
            masks = self._lines[line]
            if masks[0] & bit or masks[1] & bit:
                merged += 1
                for i in range(2):
                    if masks[i] & bit:
                        masks[i] = (masks[i] & ~bit) | parent_bit
                self._drop_if_clear(line)
        self._stats.add("nesting.lazy_merge_lines", merged)
        return merged

    def commit_open(self, level):
        # Gang invalidate all R_i and W_i bits (paper: "we simply gang
        # invalidate").
        self._clear_level(level)

    def rollback(self, level):
        # Gang invalidate every level >= the rolled-back one.
        for lvl in range(level, self._config.max_nesting + 1):
            self._clear_level(lvl)

    def _clear_level(self, level):
        bit = 1 << (level - 1)
        for line in list(self._lines):
            masks = self._lines[line]
            masks[0] &= ~bit
            masks[1] &= ~bit
            self._drop_if_clear(line)

    def clear_all(self):
        self._lines.clear()
        self._sets.clear()

    def footprint(self):
        return len(self._lines)


class AssociativityScheme(NestingSchemeBase):
    """One cache way per (line, nesting level) pair (Fig. 4b)."""

    _state = ("_entries", "_sets")

    def __init__(self, config, stats):
        super().__init__(config, stats)
        # (line, level) -> True; each entry occupies one way.
        self._entries = set()
        self._sets = defaultdict(set)  # set index -> {(line, level)}

    def note_access(self, level, addr, kind):
        line = addr - addr % self._line_size
        key = (line, level)
        if key in self._entries:
            return
        set_index = self._set_index(line)
        occupied = self._sets[set_index]
        if len(occupied) >= self.assoc:
            self._stats.add("nesting.overflows")
            raise CapacityAbort(
                level, f"associativity set {set_index} out of ways")
        self._entries.add(key)
        occupied.add(key)
        if kind == self.WRITE and level > 1:
            # Writing a line another nested level also versions replicates
            # the data into a new way — count it for the evaluation.
            self._stats.add("nesting.replications")

    def _remove(self, key):
        self._entries.discard(key)
        self._sets[self._set_index(key[0])].discard(key)

    def commit_closed(self, level):
        merged = 0
        for key in [k for k in self._entries if k[1] == level]:
            line = key[0]
            self._remove(key)
            merged += 1
            parent_key = (line, level - 1)
            if level - 1 >= 1 and parent_key not in self._entries:
                # Relabel NL=i to NL=i-1 (merge if the parent entry exists).
                self._entries.add(parent_key)
                self._sets[self._set_index(line)].add(parent_key)
        self._stats.add("nesting.lazy_merge_lines", merged)
        return merged

    def commit_open(self, level):
        for key in [k for k in self._entries if k[1] == level]:
            self._remove(key)

    def rollback(self, level):
        for key in [k for k in self._entries if k[1] >= level]:
            self._remove(key)

    def clear_all(self):
        self._entries.clear()
        self._sets.clear()

    def footprint(self):
        return len(self._entries)


def make_nesting_scheme(config, stats):
    """Build the nesting scheme selected by ``config.nesting_scheme``."""
    from repro.common.params import MULTI_TRACKING

    if config.nesting_scheme == MULTI_TRACKING:
        return MultiTrackingScheme(config, stats)
    return AssociativityScheme(config, stats)
