"""The machine-wide HTM engine.

:class:`HtmSystem` owns, per CPU, the read-/write-sets, the speculative
version manager, and the nesting-scheme capacity model; machine-wide it
owns the commit token and the conflict detector.  It implements the
*functional* semantics of every Table 2 instruction; cycle costs are
charged by the ISA layer using the work counts returned from here.
Each instruction also emits its observer event when it completes
(:mod:`repro.obs.observer`).
"""

from __future__ import annotations

import dataclasses

from repro.common.errors import CapacityAbort, IsaError
from repro.common.params import LAZY, LINE
from repro.htm.conflict import PROCEED, make_detector
from repro.htm.nesting import NestingSchemeBase, make_nesting_scheme
from repro.htm.rwset import ConflictIndex, RwSets
from repro.htm.versioning import make_version_manager
from repro.obs.observer import HTM_EVENTS, clear_subscribers

#: Transaction status values held in ``xstatus`` (paper Table 1).
ACTIVE = "active"
VALIDATED = "validated"
COMMITTED = "committed"
ABORTED = "aborted"


@dataclasses.dataclass
class LevelInfo:
    """Per-nesting-level transaction info mirrored into ``xstatus``."""

    txid: int
    open: bool
    status: str = ACTIVE
    began_at: int = 0


@dataclasses.dataclass
class CommitResult:
    """What ``xcommit`` did, for timing and bookkeeping."""

    kind: str                  # "closed", "open", "outer", "flattened"
    written_words: set = dataclasses.field(default_factory=set)
    merge_work: int = 0
    ended_outermost: bool = False


class TxState:
    """All transactional hardware state of one CPU."""

    #: Snapshot state (repro.sim.snapshot).  The parts load in place:
    #: ``_tx_load`` and friends are bound to them.
    _state = ("n_loads", "n_stores", "levels", "flatten_extra",
              "timestamp", "rwsets", "versions", "nesting")

    def __init__(self, cpu_id, config, memory, stats, index=None):
        self.cpu_id = cpu_id
        scope = stats.scope(f"cpu{cpu_id}.htm")
        self.stats = scope
        # Per-access event counts kept as plain ints and folded into the
        # stats tree by flush_stats() at run end (see Cache.flush_stats).
        self.n_loads = 0
        self.n_stores = 0
        self.rwsets = RwSets(config, index=index, cpu_id=cpu_id)
        self.versions = make_version_manager(config, memory, scope)
        self.nesting = make_nesting_scheme(config, scope)
        # Pre-bound per-access methods: the component objects are fixed
        # for the machine's lifetime, and load/store resolve these once
        # per simulated memory instruction.
        self._tx_load = self.versions.tx_load
        self._tx_store = self.versions.tx_store
        self._add_read = self.rwsets.add_read_unit
        self._add_write = self.rwsets.add_write_unit
        self._note_access = self.nesting.note_access
        # The rw-set tables themselves (level -> set of units; loaded in
        # place by a snapshot restore), for the repeat-access fast path.
        self._read_sets = self.rwsets._reads
        self._write_sets = self.rwsets._writes
        self.levels = []          # stack of LevelInfo, index 0 = level 1
        self.flatten_extra = 0    # subsumed inner transactions when flattening
        self.timestamp = 0        # outermost xbegin cycle (eager priority)

    def depth(self):
        return len(self.levels)

    def in_tx(self):
        return bool(self.levels)

    def current(self):
        if not self.levels:
            raise IsaError(f"cpu {self.cpu_id}: no active transaction")
        return self.levels[-1]

    def is_validated(self):
        for info in self.levels:
            if info.status == VALIDATED:
                return True
        return False

    def flush_stats(self):
        """Fold deferred per-access counts into the stats tree."""
        if self.n_loads:
            self.stats.add("loads", self.n_loads)
            self.n_loads = 0
        if self.n_stores:
            self.stats.add("stores", self.n_stores)
            self.n_stores = 0
        self.versions.flush_stats()


class HtmSystem:
    """Functional HTM semantics for the whole machine."""

    #: Snapshot state (repro.sim.snapshot).  The index and the per-CPU
    #: states load in place: the detectors alias both.
    _state = ("_next_txid", "serial_owner", "validated", "index",
              "states", "detector")
    #: Per-CPU parts a snapshot keeps for the bound CPUs only.
    _per_cpu = ("states",)

    def __init__(self, config, memory, stats):
        self.config = config
        self.memory = memory
        self.stats = stats
        #: Machine-wide reverse conflict index (unit -> per-CPU level
        #: masks), maintained by every CPU's RwSets and probed by the
        #: indexed detectors.
        self.index = ConflictIndex()
        self.states = [
            TxState(cpu_id, config, memory, stats, self.index)
            for cpu_id in range(config.n_cpus)
        ]
        self.detector = make_detector(config, self.states,
                                      stats.scope("htm"), self.index)
        # Unit mapping, inlined into load/store: the per-access method
        # chain (rwsets.unit_of -> addr.line_of) is measurable there.
        self._line_units = config.granularity == LINE
        self._line_size = config.line_size
        # Lazy detectors only act at commit time — their on_load/on_store
        # are the base-class PROCEED stubs, so load/store skip the call
        # entirely (an eager machine pays it, a lazy one should not).
        self._access_checks = config.detection != LAZY
        self._next_txid = 1
        #: CPU holding machine-wide serial mode (the virtualization
        #: fallback hook), or None.
        self.serial_owner = None
        #: Currently-validated publishing transactions: (cpu, level) keys.
        #: xvalidate admits a transaction only if it conflicts with no
        #: member, which is what guarantees a validated transaction can
        #: never be violated by a prior memory access (paper §6.1) while
        #: still letting non-conflicting commits — and the commit handlers
        #: running between xvalidate and xcommit — proceed in parallel.
        self.validated = {}
        # Observer subscriber tuples (``_on_<event>``), rebuilt by
        # Machine.observe/unobserve; empty until something subscribes.
        clear_subscribers(self, HTM_EVENTS)

    def attach_violation_sink(self, sink):
        self.detector.attach_sink(sink)

    # ------------------------------------------------------------------
    # Transaction definition
    # ------------------------------------------------------------------

    def begin(self, cpu_id, open_, now):
        """``xbegin`` / ``xbegin_open``.  Returns the new nesting level."""
        state = self.states[cpu_id]
        if self.config.flatten and state.in_tx():
            # Conventional HTM: subsume the inner transaction entirely.
            state.flatten_extra += 1
            state.stats.add("begins_flattened")
            return state.depth()
        if state.depth() >= self.config.max_nesting:
            raise CapacityAbort(
                state.depth(),
                f"nesting depth {state.depth() + 1} exceeds hardware limit "
                f"{self.config.max_nesting}")
        level = state.depth() + 1
        txid = self._next_txid
        self._next_txid += 1
        state.levels.append(LevelInfo(txid=txid, open=open_, began_at=now))
        state.rwsets.open_level(level)
        state.versions.begin_level(level)
        if level == 1:
            state.timestamp = now
        state.stats.add("begins_open" if open_ else "begins")
        for fn in self._on_begin:
            fn(cpu_id, open_, now, level)
        return level

    # ------------------------------------------------------------------
    # Data access
    # ------------------------------------------------------------------

    def load(self, cpu_id, addr):
        """Transactional load.  Returns (action, value)."""
        state = self.states[cpu_id]
        level = len(state.levels)
        unit = (addr - addr % self._line_size) if self._line_units else addr
        if self._access_checks:
            action = self.detector.on_load(cpu_id, unit)
            if action != PROCEED:
                for fn in self._on_load:
                    fn(cpu_id, addr, unit, level, action)
                return action, None
        if level >= 1 and unit not in state._read_sets[level]:
            # A unit already in this level's read-set was recorded, and
            # noted by the nesting scheme, when it entered the set; both
            # calls would be no-ops for it.
            state._add_read(level, unit)
            state._note_access(level, addr, NestingSchemeBase.READ)
        value = state._tx_load(level, addr)
        state.n_loads += 1
        for fn in self._on_load:
            fn(cpu_id, addr, unit, level, PROCEED)
        return PROCEED, value

    def store(self, cpu_id, addr, value):
        """Transactional store.  Returns the detector action."""
        state = self.states[cpu_id]
        level = len(state.levels)
        unit = (addr - addr % self._line_size) if self._line_units else addr
        if self._access_checks:
            action = self.detector.on_store(cpu_id, unit)
            if action != PROCEED:
                for fn in self._on_store:
                    fn(cpu_id, addr, unit, level, action)
                return action
        if level >= 1:
            if unit not in state._write_sets[level]:
                # As for loads: a repeat store to a unit already in this
                # level's write-set needs neither call.
                state._add_write(level, unit)
                state._note_access(level, addr, NestingSchemeBase.WRITE)
            state._tx_store(level, addr, value)
        else:
            # Non-transactional store: update memory and, in a lazy
            # machine, behave like a one-word commit so strong atomicity
            # holds (other transactions that read this word are violated).
            self.memory.write(addr, value)
            if self.config.detection == LAZY:
                self.detector.on_commit(cpu_id, {unit})
        state.n_stores += 1
        for fn in self._on_store:
            fn(cpu_id, addr, unit, level, PROCEED)
        return PROCEED

    def im_load(self, cpu_id, addr):
        value = self.states[cpu_id].versions.im_load(addr)
        for fn in self._on_im_load:
            fn(cpu_id, addr, value)
        return value

    def im_store(self, cpu_id, addr, value):
        state = self.states[cpu_id]
        state.versions.im_store(state.depth(), addr, value)
        for fn in self._on_im_store:
            fn(cpu_id, addr, value)

    def im_store_id(self, cpu_id, addr, value):
        self.states[cpu_id].versions.im_store_id(addr, value)
        for fn in self._on_im_store_id:
            fn(cpu_id, addr, value)

    def release(self, cpu_id, addr):
        """Early release from the current read-set (paper §4.7)."""
        state = self.states[cpu_id]
        released = (state.in_tx()
                    and state.rwsets.release(state.depth(), addr))
        if released:
            state.stats.add("releases")
        for fn in self._on_release:
            fn(cpu_id, addr, released)
        return released

    # ------------------------------------------------------------------
    # Two-phase commit
    # ------------------------------------------------------------------

    def _commit_publishes(self, state):
        """True if committing the current level writes shared memory."""
        info = state.current()
        return info.open or state.depth() == 1

    def validate(self, cpu_id):
        """``xvalidate``.  Returns True on success, False to stall."""
        ok = self._arbitrate(cpu_id)
        for fn in self._on_validate:
            fn(cpu_id, ok)
        return ok

    def _arbitrate(self, cpu_id):
        state = self.states[cpu_id]
        if state.flatten_extra:
            # Flattened inner transaction: its validate is a no-op; only
            # the real outermost commit arbitrates.
            return True
        info = state.current()
        if info.status == VALIDATED:
            return True
        if (self.serial_owner is not None and self.serial_owner != cpu_id
                and self._commit_publishes(state)):
            # Serial mode: publishing commits of other CPUs are held off.
            state.stats.add("validate_stalls")
            return False
        if self._commit_publishes(state) and self.config.detection == LAZY:
            # Admission control: a transaction validates only if it cannot
            # violate (or be violated by) any already-validated one.
            level = state.depth()
            my_reads = state.rwsets.reads_at(level)
            my_writes = state.rwsets.writes_at(level)
            for other_id, other_level in self.validated:
                if other_id == cpu_id:
                    continue
                other = self.states[other_id].rwsets
                other_reads = other.reads_at(other_level)
                other_writes = other.writes_at(other_level)
                if (my_writes & other_reads or my_writes & other_writes
                        or my_reads & other_writes):
                    state.stats.add("validate_stalls")
                    return False
            self.validated[(cpu_id, level)] = True
        info.status = VALIDATED
        state.stats.add("validates")
        return True

    def devalidate(self, cpu_id):
        """Retract the current level's successful ``xvalidate``.

        The §6.1-safe way to force an abort *between* xvalidate and
        xcommit: the transaction first leaves the validated set (so the
        "a validated transaction can never be violated" invariant is
        preserved — it is no longer validated when the violation lands)
        and only then may a violation be posted against it.  Models a
        commit-token loss after a successful arbitration, e.g. a dropped
        coherence message.  Returns the devalidated level, or 0 if the
        current level was not validated.
        """
        state = self.states[cpu_id]
        level = 0
        if state.in_tx() and state.current().status == VALIDATED:
            level = state.depth()
            state.current().status = ACTIVE
            self.validated.pop((cpu_id, level), None)
            state.stats.add("devalidates")
        for fn in self._on_devalidate:
            fn(cpu_id, level)
        return level

    def commit(self, cpu_id):
        """``xcommit``.  Returns a :class:`CommitResult`."""
        state = self.states[cpu_id]
        subscribers = self._on_commit
        if state.flatten_extra:
            state.flatten_extra -= 1
            state.stats.add("commits_flattened")
            result = CommitResult(kind="flattened")
            for fn in subscribers:
                fn(cpu_id, result, 0, 0, 0, 0)
            return result
        info = state.current()
        level = state.depth()
        if info.status not in (ACTIVE, VALIDATED):
            raise IsaError(f"cpu {cpu_id}: commit in status {info.status}")
        if subscribers:
            committed = (level, info.began_at,
                         len(state.rwsets.reads_at(level)),
                         len(state.rwsets.writes_at(level)))
        if not info.open and level > 1:
            merge = state.rwsets.merge_into_parent(level)
            state.versions.commit_closed(level)
            state.nesting.commit_closed(level)
            state.levels.pop()
            state.stats.add("commits_closed")
            info.status = COMMITTED
            result = CommitResult(kind="closed", merge_work=merge)
            for fn in subscribers:
                fn(cpu_id, result, *committed)
            return result
        # Outermost or open-nested commit: publish to shared memory.
        written_units = set(state.rwsets.writes_at(level))
        written_words = state.versions.commit_to_memory(level)
        state.rwsets.discard(level)
        if info.open:
            state.nesting.commit_open(level)
        else:
            state.nesting.rollback(level)  # gang clear level-1 tracking
        state.levels.pop()
        self.validated.pop((cpu_id, level), None)
        info.status = COMMITTED
        # Conflict detection sees the publication (lazy mode posts
        # violations here; eager mode already resolved everything).
        self.detector.on_commit(cpu_id, written_units)
        kind = "open" if info.open else "outer"
        state.stats.add(f"commits_{kind}")
        result = CommitResult(
            kind=kind,
            written_words=written_words,
            ended_outermost=not state.in_tx(),
        )
        for fn in subscribers:
            fn(cpu_id, result, *committed)
        return result

    # ------------------------------------------------------------------
    # Rollback
    # ------------------------------------------------------------------

    def rollback_to(self, cpu_id, target_level, now=0):
        """Discard all speculative state at levels >= ``target_level`` and
        restart ``target_level`` as a fresh, active transaction.

        This is the hardware side of the dispatcher's ``xrwsetclear`` +
        ``xregrestore`` sequence; multi-level rollback gang-clears the
        deeper levels (paper §6.3).  Returns undo work units performed.
        """
        state = self.states[cpu_id]
        if target_level < 1 or target_level > state.depth():
            raise IsaError(
                f"cpu {cpu_id}: rollback to level {target_level} with "
                f"depth {state.depth()}")
        # Flattened inner transactions all collapse with the real one.
        state.flatten_extra = 0
        restart_open = state.levels[target_level - 1].open
        work = 0
        for level in range(state.depth(), target_level - 1, -1):
            info = state.levels[level - 1]
            self.validated.pop((cpu_id, level), None)
            work += state.versions.rollback(level)
            state.rwsets.discard(level)
            info.status = ABORTED
            state.stats.add("rollbacks")
        state.stats.add(f"rollbacks_to_level{target_level}")
        state.nesting.rollback(target_level)
        del state.levels[target_level - 1:]
        # Restart the target level as a fresh transaction (the register
        # checkpoint restore jumps back to just after xbegin).
        txid = self._next_txid
        self._next_txid += 1
        state.levels.append(
            LevelInfo(txid=txid, open=restart_open, began_at=now))
        state.rwsets.open_level(target_level)
        state.versions.begin_level(target_level)
        state.stats.add("restarts")
        for fn in self._on_rollback_to:
            fn(cpu_id, target_level, now, work)
        return work

    def abandon_all(self, cpu_id):
        """Discard every active level without restarting (thread exit or
        ``retry`` parking).  Returns undo work units."""
        state = self.states[cpu_id]
        work = 0
        if state.in_tx():
            for level in range(state.depth(), 0, -1):
                self.validated.pop((cpu_id, level), None)
                work += state.versions.rollback(level)
                state.rwsets.discard(level)
            state.nesting.clear_all()
            state.levels.clear()
            state.flatten_extra = 0
            state.stats.add("abandons")
        for fn in self._on_abandon_all:
            fn(cpu_id, work)
        return work

    def flush_stats(self):
        """Fold every CPU's deferred per-access counts into the stats
        tree (the engine calls this when a run ends)."""
        for state in self.states:
            state.flush_stats()

    # ------------------------------------------------------------------
    # Serial mode (the virtualization fallback hook, DESIGN.md §6b)
    # ------------------------------------------------------------------

    def try_acquire_serial(self, cpu_id):
        """Acquire machine-wide serialization once all other validated
        transactions have drained; False if not yet available."""
        if self.serial_owner is not None:
            acquired = self.serial_owner == cpu_id
        elif any(owner != cpu_id for owner, _ in self.validated):
            acquired = False
        else:
            self.serial_owner = cpu_id
            self.states[cpu_id].stats.add("serial_acquires")
            acquired = True
        for fn in self._on_try_acquire_serial:
            fn(cpu_id, acquired)
        return acquired

    def release_serial(self, cpu_id):
        if self.serial_owner != cpu_id:
            raise IsaError(
                f"cpu {cpu_id} releasing serial mode owned by "
                f"{self.serial_owner}")
        self.serial_owner = None
        for fn in self._on_release_serial:
            fn(cpu_id)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def depth(self, cpu_id):
        return len(self.states[cpu_id].levels)

    def xstatus(self, cpu_id):
        """The ``xstatus`` register view (paper Table 1)."""
        state = self.states[cpu_id]
        if not state.in_tx():
            return {"txid": 0, "type": None, "status": None, "level": 0}
        info = state.current()
        return {
            "txid": info.txid,
            "type": "open" if info.open else "closed",
            "status": info.status,
            "level": state.depth() + state.flatten_extra,
        }
