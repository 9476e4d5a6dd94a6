"""Per-CPU, per-nesting-level read- and write-set tracking.

The HTM tracks the addresses read and written by each active transaction
in the nest (paper Section 4.5/6.3).  Tracking granularity is a *unit*:
a cache line by default, or a word when ``config.granularity == WORD``
(the paper discusses the word-granularity option in the context of the
``release`` instruction, §4.7).

Levels are 1-based; level 0 means non-transactional.

Conflict detection needs the *reverse* mapping — given a unit, which
CPUs track it at which levels?  Scanning every CPU's sets per access is
O(n_cpus × levels); real bounded-set HTMs answer it with a per-line
ownership lookup instead.  :class:`ConflictIndex` is that lookup: a
machine-wide ``unit -> {cpu_id: level-mask}`` map for readers and
writers, maintained incrementally by every :class:`RwSets` mutation, so
the detectors probe only a unit's actual owners (docs/performance.md).
"""

from __future__ import annotations

from repro.common.addr import line_of
from repro.common.params import LINE


class ConflictIndex:
    """Machine-wide reverse map: unit -> per-CPU reader/writer masks.

    Masks use bit ``level - 1`` for nesting level ``level``, the same
    encoding as ``xvcurrent`` and :meth:`RwSets.levels_reading`.  Empty
    masks and empty per-unit tables are pruned eagerly, so iteration
    over a unit's owners touches only CPUs that really track it.
    """

    __slots__ = ("readers", "writers")

    #: Snapshot state (repro.sim.snapshot), loaded in place: the
    #: indexed detectors alias both tables.
    _state = __slots__

    #: Shared immutable empty owner table (the common "nobody tracks
    #: this unit" answer, returned without allocating).
    _EMPTY = {}

    def __init__(self):
        #: unit -> {cpu_id: level mask}.  Public so the detectors' hot
        #: path can probe the dict without a method call; all *mutation*
        #: still goes through set_*/clear_* below.
        self.readers = {}
        self.writers = {}

    # -- queries (the detectors' hot path) ---------------------------------

    def readers_of(self, unit):
        """``{cpu_id: level-mask}`` of CPUs with ``unit`` in a read-set.

        The returned mapping is the index's internal table; callers must
        not mutate it (the detectors only iterate).
        """
        return self.readers.get(unit, self._EMPTY)

    def writers_of(self, unit):
        """``{cpu_id: level-mask}`` of CPUs with ``unit`` in a write-set."""
        return self.writers.get(unit, self._EMPTY)

    def read_mask(self, cpu_id, unit):
        """Level mask of ``cpu_id``'s read-sets holding ``unit``."""
        return self.readers.get(unit, self._EMPTY).get(cpu_id, 0)

    def write_mask(self, cpu_id, unit):
        return self.writers.get(unit, self._EMPTY).get(cpu_id, 0)

    def tracked_units(self):
        """All units with at least one owner (for invariant checks)."""
        return set(self.readers) | set(self.writers)

    # -- maintenance (called by RwSets only) -------------------------------

    @staticmethod
    def _set(table, cpu_id, unit, bit):
        owners = table.get(unit)
        if owners is None:
            table[unit] = {cpu_id: bit}
        else:
            owners[cpu_id] = owners.get(cpu_id, 0) | bit

    @staticmethod
    def _clear(table, cpu_id, unit, mask):
        owners = table.get(unit)
        if owners is None:
            return
        bits = owners.get(cpu_id, 0) & ~mask
        if bits:
            owners[cpu_id] = bits
        else:
            owners.pop(cpu_id, None)
            if not owners:
                del table[unit]

    def set_read(self, cpu_id, unit, level):
        self._set(self.readers, cpu_id, unit, 1 << (level - 1))

    def set_write(self, cpu_id, unit, level):
        self._set(self.writers, cpu_id, unit, 1 << (level - 1))

    def clear_read(self, cpu_id, unit, mask):
        self._clear(self.readers, cpu_id, unit, mask)

    def clear_write(self, cpu_id, unit, mask):
        self._clear(self.writers, cpu_id, unit, mask)


class RwSets:
    """Read-/write-sets for one CPU across all active nesting levels.

    When constructed with a :class:`ConflictIndex` (as
    :class:`~repro.htm.system.HtmSystem` does), every mutation also
    updates the machine-wide reverse index; a bare ``RwSets(config)``
    tracks only its own sets (unit tests build them this way).
    """

    _state = ("_reads", "_writes")

    def __init__(self, config, index=None, cpu_id=0):
        self._config = config
        self._index = index
        self._cpu_id = cpu_id
        self._reads = {}   # level -> set of units
        self._writes = {}  # level -> set of units

    # -- unit mapping --------------------------------------------------------

    def unit_of(self, addr):
        """Map an address to its tracking unit."""
        if self._config.granularity == LINE:
            return line_of(addr, self._config.line_size)
        return addr

    # -- recording ------------------------------------------------------------

    def open_level(self, level):
        """Start tracking a new nesting level."""
        self._reads[level] = set()
        self._writes[level] = set()

    def add_read(self, level, addr):
        self.add_read_unit(level, self.unit_of(addr))

    def add_write(self, level, addr):
        self.add_write_unit(level, self.unit_of(addr))

    def add_read_unit(self, level, unit):
        """Record an already-mapped unit (the HTM front-end maps the
        address once for the detector and reuses it here).  Re-recording
        a unit already tracked at this level is a no-op, so the index
        update is skipped for it — repeated access to the same line is
        the common case."""
        units = self._reads[level]
        if unit not in units:
            units.add(unit)
            if self._index is not None:
                self._index.set_read(self._cpu_id, unit, level)

    def add_write_unit(self, level, unit):
        units = self._writes[level]
        if unit not in units:
            units.add(unit)
            if self._index is not None:
                self._index.set_write(self._cpu_id, unit, level)

    def release(self, level, addr):
        """Early release: drop the unit holding ``addr`` from the read-set
        at ``level``.  Returns True if the unit was present."""
        unit = self.unit_of(addr)
        if unit in self._reads.get(level, ()):
            self._reads[level].discard(unit)
            if self._index is not None:
                self._index.clear_read(self._cpu_id, unit, 1 << (level - 1))
            return True
        return False

    # -- queries ---------------------------------------------------------------

    def reads_at(self, level):
        """Frozen view of the read-set at ``level``.

        A *copy*: callers cannot corrupt the tracking state (or the
        reverse index) by mutating the result, and the view stays valid
        across a later ``discard``/``merge_into_parent``.
        """
        return frozenset(self._reads.get(level, ()))

    def writes_at(self, level):
        """Frozen view of the write-set at ``level`` (see reads_at)."""
        return frozenset(self._writes.get(level, ()))

    def active_levels(self):
        return sorted(self._reads)

    def all_reads(self):
        """Union of read units over all active levels."""
        result = set()
        for units in self._reads.values():
            result |= units
        return result

    def all_writes(self):
        result = set()
        for units in self._writes.values():
            result |= units
        return result

    def levels_reading(self, unit):
        """Bitmask (bit ``level-1``) of levels whose read-set holds ``unit``."""
        mask = 0
        for level, units in self._reads.items():
            if unit in units:
                mask |= 1 << (level - 1)
        return mask

    def levels_writing(self, unit):
        mask = 0
        for level, units in self._writes.items():
            if unit in units:
                mask |= 1 << (level - 1)
        return mask

    def levels_touching(self, unit):
        """Levels reading *or* writing ``unit`` (for write-write conflicts
        under eager detection)."""
        return self.levels_reading(unit) | self.levels_writing(unit)

    # -- commit / rollback -------------------------------------------------------

    def merge_into_parent(self, level):
        """Closed-nested commit: OR child sets into the parent's.

        Returns the number of units merged (the lazy-merge work the
        hardware would perform, for timing accounting).
        """
        parent = level - 1
        child_reads = self._reads.pop(level)
        child_writes = self._writes.pop(level)
        merged = len(child_reads) + len(child_writes)
        if self._index is not None:
            index, cpu_id = self._index, self._cpu_id
            child_bit = 1 << (level - 1)
            for unit in child_reads:
                index.clear_read(cpu_id, unit, child_bit)
                if parent >= 1:
                    index.set_read(cpu_id, unit, parent)
            for unit in child_writes:
                index.clear_write(cpu_id, unit, child_bit)
                if parent >= 1:
                    index.set_write(cpu_id, unit, parent)
        if parent >= 1:
            self._reads[parent] |= child_reads
            self._writes[parent] |= child_writes
        return merged

    def discard(self, level):
        """Drop the sets of ``level`` (rollback, or open-nested commit)."""
        reads = self._reads.pop(level, None)
        writes = self._writes.pop(level, None)
        if self._index is not None:
            bit = 1 << (level - 1)
            for unit in reads or ():
                self._index.clear_read(self._cpu_id, unit, bit)
            for unit in writes or ():
                self._index.clear_write(self._cpu_id, unit, bit)

    def discard_all(self):
        if self._index is not None:
            for level in list(self._reads):
                self.discard(level)
        self._reads.clear()
        self._writes.clear()
