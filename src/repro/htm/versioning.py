"""Speculative data versioning: write-buffer and undo-log schemes.

The paper's HTM design space (Section 2.2) contains two version-management
choices, both of which we implement behind one interface:

* :class:`WriteBufferVersioning` — speculative writes are buffered per
  nesting level and reach shared memory only at (outermost or open-nested)
  commit.  This is the scheme the paper evaluates (TCC-style).
* :class:`UndoLogVersioning` — stores update memory in place; a FILO undo
  log in thread-private memory holds old values (LogTM/UTM-style).  Only
  legal with eager conflict detection.

Both also maintain the *immediate-store* undo area: ``imst`` updates
memory now but is undone on rollback, while ``imstid`` keeps no undo
information (paper §4.7).
"""

from __future__ import annotations

import dataclasses

from repro.common.errors import MemoryError_
from repro.common.params import WORD_SIZE


@dataclasses.dataclass
class UndoEntry:
    """One old-value record: restore ``addr`` to ``old`` on rollback of
    ``level``.  ``kind`` distinguishes transactional stores from ``imst``
    records (they share one FILO log in the undo-log scheme so that
    interleaved stores to the same word restore in the right order)."""

    level: int
    addr: int
    old: object
    kind: str = "tx"


class VersionManagerBase:
    """State and behaviour shared by both versioning schemes."""

    #: Snapshot state (repro.sim.snapshot); subclasses extend it.
    _state = ("_im_undo", "_im_logged", "n_stores")

    def __init__(self, config, memory, stats):
        self._config = config
        self._memory = memory
        self._stats = stats
        # Undo records for ``imst`` at each active level, in push order.
        self._im_undo = []
        self._im_logged = set()  # (level, addr) pairs already logged
        # Deferred per-store event count; flush_stats folds it into the
        # stats tree under the scheme's counter name at run end.
        self.n_stores = 0
        self._stores_key = None  # set by subclasses that count stores

    def flush_stats(self):
        """Fold deferred event counts into the stats tree."""
        if self.n_stores and self._stores_key:
            self._stats.add(self._stores_key, self.n_stores)
            self.n_stores = 0

    # -- immediate accesses ----------------------------------------------------

    def im_load(self, addr):
        return self._memory.read(addr)

    def im_store(self, level, addr, value):
        """``imst``: write memory now; keep undo info for ``level``."""
        if level >= 1 and (level, addr) not in self._im_logged:
            self._im_undo.append(UndoEntry(level, addr, self._memory.read(addr)))
            self._im_logged.add((level, addr))
        self._memory.write(addr, value)

    def im_store_id(self, addr, value):
        """``imstid``: write memory now; no undo information at all."""
        self._memory.write(addr, value)

    def _rollback_im(self, level):
        """Undo ``imst`` effects of ``level`` in FILO order."""
        restored = 0
        while self._im_undo and self._im_undo[-1].level >= level:
            entry = self._im_undo.pop()
            self._memory.write(entry.addr, entry.old)
            self._im_logged.discard((entry.level, entry.addr))
            restored += 1
        return restored

    def _merge_im(self, level):
        """Closed commit: the child's ``imst`` undo records become the
        parent's, preserving FILO order."""
        parent = level - 1
        for entry in self._im_undo:
            if entry.level == level:
                self._im_logged.discard((level, entry.addr))
                entry.level = parent
                if parent >= 1:
                    self._im_logged.add((parent, entry.addr))
        if parent < 1:
            self._im_undo = [e for e in self._im_undo if e.level >= 1]

    def _publish_im(self, level):
        """Open commit: the child's ``imst`` effects become permanent."""
        for entry in self._im_undo:
            if entry.level == level:
                self._im_logged.discard((level, entry.addr))
        self._im_undo = [e for e in self._im_undo if e.level != level]

    # -- interface ---------------------------------------------------------------

    def begin_level(self, level):
        raise NotImplementedError

    def tx_load(self, level, addr):
        raise NotImplementedError

    def tx_store(self, level, addr, value):
        raise NotImplementedError

    def commit_closed(self, level):
        """Merge level's speculative data into the parent.  Returns work
        units performed (for timing)."""
        raise NotImplementedError

    def commit_to_memory(self, level, written_units=None):
        """Publish level's speculative data to shared memory (outermost or
        open-nested commit).  Returns the set of word addresses written."""
        raise NotImplementedError

    def rollback(self, level):
        """Discard/undo level's speculative data.  Returns work units."""
        raise NotImplementedError

    def written_words(self, level):
        """Word addresses with a speculative value at ``level``."""
        raise NotImplementedError


class WriteBufferVersioning(VersionManagerBase):
    """Per-level write buffers; memory untouched until commit."""

    _state = VersionManagerBase._state + ("_buffers",)

    def __init__(self, config, memory, stats):
        super().__init__(config, memory, stats)
        self._buffers = {}  # level -> {word addr: value}
        # Active levels in descending order, maintained on begin/commit/
        # rollback so the per-load lookup never sorts (hot path).
        self._levels_desc = []
        self._stores_key = "wbuf.stores"

    def _rederive(self):
        """Rebuild ``_levels_desc`` from the buffers (also the snapshot
        protocol's hook)."""
        self._levels_desc = sorted(self._buffers, reverse=True)

    def begin_level(self, level):
        self._buffers[level] = {}
        self._rederive()

    def tx_load(self, level, addr):
        # Innermost buffered version wins; fall through to memory.
        # (No alignment check here: buffered keys were checked by
        # tx_store, and the memory fallthrough checks on read.)
        buffers = self._buffers
        for lvl in self._levels_desc:
            if lvl > level:
                continue
            buffer = buffers[lvl]
            if addr in buffer:
                return buffer[addr]
        return self._memory.read(addr)

    def tx_store(self, level, addr, value):
        # The buffer write bypasses MemoryImage, so guard alignment here
        # (inlined: this backs every speculative store).
        if addr % WORD_SIZE:
            raise MemoryError_(f"unaligned word access at {addr:#x}")
        self._buffers[level][addr] = value
        self.n_stores += 1

    def commit_closed(self, level):
        child = self._buffers.pop(level)
        self._rederive()
        parent_level = level - 1
        if parent_level in self._buffers:
            self._buffers[parent_level].update(child)
        self._merge_im(level)
        self._stats.add("wbuf.merged_words", len(child))
        return len(child)

    def commit_to_memory(self, level, written_units=None):
        child = self._buffers.pop(level)
        self._rederive()
        for addr, value in child.items():
            self._memory.write(addr, value)
        # Open-nested commit semantics (paper §4.5/§6.3.2): ancestors with
        # their own speculative version of the same data are updated with
        # the committed values, *without* touching their R/W bits.
        for lvl, buffer in self._buffers.items():
            if lvl >= level:
                continue
            for addr, value in child.items():
                if addr in buffer:
                    buffer[addr] = value
                    self._stats.add("wbuf.ancestor_updates")
        self._publish_im(level)
        self._stats.add("wbuf.committed_words", len(child))
        return set(child)

    def rollback(self, level):
        dropped = self._buffers.pop(level, {})
        self._rederive()
        restored = self._rollback_im(level)
        self._stats.add("wbuf.rolled_back_words", len(dropped))
        return len(dropped) + restored

    def written_words(self, level):
        return set(self._buffers.get(level, ()))


class UndoLogVersioning(VersionManagerBase):
    """In-place stores with a FILO undo log per nesting level.

    The log is level-monotone: all records of level *i* sit after every
    record of shallower levels, so rollback pops a suffix — exactly the
    stack structure the paper describes for the multi-tracking scheme
    (§6.3.1).
    """

    _state = VersionManagerBase._state + (
        "_log", "_logged", "_level_writes")

    def __init__(self, config, memory, stats):
        super().__init__(config, memory, stats)
        self._log = []          # list[UndoEntry], push order
        self._logged = set()    # (level, word addr) already logged
        self._level_writes = {}  # level -> set of word addrs written
        self._stores_key = "undolog.stores"

    def begin_level(self, level):
        self._level_writes[level] = set()

    def im_store(self, level, addr, value):
        """``imst`` on an undo-log machine shares the transactional FILO
        log: interleaved ``imst``/store traffic to one word must undo in
        strict reverse order, which two separate stacks cannot guarantee
        (found by the hypothesis equivalence property)."""
        if level >= 1 and (level, addr, "im") not in self._logged:
            self._log.append(UndoEntry(
                level, addr, self._memory.read(addr), kind="im"))
            self._logged.add((level, addr, "im"))
        self._memory.write(addr, value)

    def tx_load(self, level, addr):
        return self._memory.read(addr)

    def tx_store(self, level, addr, value):
        if (level, addr, "tx") not in self._logged:
            self._log.append(UndoEntry(level, addr, self._memory.read(addr)))
            self._logged.add((level, addr, "tx"))
        self._level_writes[level].add(addr)
        self._memory.write(addr, value)
        self.n_stores += 1

    def commit_closed(self, level):
        parent = level - 1
        relabelled = 0
        for entry in self._log:
            if entry.level == level:
                self._logged.discard((level, entry.addr, entry.kind))
                entry.level = parent
                # Keep only the oldest record per (parent, addr, kind):
                # FILO replay makes the older record win anyway, but
                # dropping duplicates keeps the log bounded.
                if (parent, entry.addr, entry.kind) in self._logged:
                    entry.level = -1  # mark dead
                else:
                    self._logged.add((parent, entry.addr, entry.kind))
                relabelled += 1
        self._log = [e for e in self._log if e.level != -1]
        writes = self._level_writes.pop(level)
        self._level_writes.setdefault(parent, set()).update(writes)
        return relabelled

    def commit_to_memory(self, level, written_units=None):
        written = self._level_writes.pop(level, set())
        # Discard this level's undo records: the writes are permanent now.
        kept = []
        search_steps = 0
        for entry in self._log:
            search_steps += 1
            if entry.level == level:
                self._logged.discard((level, entry.addr, entry.kind))
                continue
            # Paper §6.3.1: if an open-nested commit overwrites data also
            # written by an ancestor, the ancestor's log entry must be
            # updated so a later ancestor rollback does not restore a
            # pre-open-commit value.  This is the "expensive search".
            if entry.addr in written:
                entry.old = self._memory.read(entry.addr)
                self._stats.add("undolog.ancestor_fixups")
            kept.append(entry)
        self._log = kept
        self._publish_im(level)
        self._stats.add("undolog.commit_search_steps", search_steps)
        return written

    def rollback(self, level):
        restored = 0
        while self._log and self._log[-1].level >= level:
            entry = self._log.pop()
            self._memory.write(entry.addr, entry.old)
            self._logged.discard((entry.level, entry.addr, entry.kind))
            restored += 1
        for lvl in [l for l in self._level_writes if l >= level]:
            del self._level_writes[lvl]
        self._stats.add("undolog.restored", restored)
        return restored

    def written_words(self, level):
        return set(self._level_writes.get(level, ()))

    @property
    def log_length(self):
        return len(self._log)


def make_version_manager(config, memory, stats):
    """Build the version manager selected by ``config.versioning``."""
    from repro.common.params import WRITE_BUFFER

    if config.versioning == WRITE_BUFFER:
        return WriteBufferVersioning(config, memory, stats)
    return UndoLogVersioning(config, memory, stats)
