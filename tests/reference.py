"""Reference implementations the differential suites diff against.

The simulator has exactly one interpreter (the per-type dispatch table
in :mod:`repro.isa.context`) and one detector family (the indexed
:class:`~repro.htm.conflict.LazyDetector`/:class:`~repro.htm.conflict.
EagerDetector`).  This module keeps the original, obviously-correct
versions of both, so the suites can show the optimized paths are
observably identical:

* :func:`execute_chain` — the pre-table ``isinstance`` chain, verbatim.
  It allocates a fresh :class:`~repro.isa.context.ExecOutcome` per op.
  :func:`install_chain` rebinds every CPU of a machine to it.
* :class:`NaiveLazyDetector`/:class:`NaiveEagerDetector` — the
  O(n_cpus × written units) and O(n_cpus × nesting levels) full scans
  over every other CPU's read/write-sets.  :func:`install_naive_detector`
  swaps one into a machine in place of its indexed detector.
* :class:`EagerCache` — the cache that builds every set up front as a
  list of ``OrderedDict``, verbatim.  :func:`install_eager_caches`
  swaps a twin of it in for every cache of a machine.

Install any of them before the machine runs and before any instrument
attaches (instruments capture the executor and the violation sink).
The eager caches do not snapshot: ``HierarchicalMemory._rederive``
walks the lazy cache's set dict.

The explorer drains unbounded pruned schedule spaces by source-set
DPOR.  :func:`explore_sleep_sets` keeps the enumeration it replaced:
breadth-first over generations, branching on every in-window
alternative at every step, pruned by sleep sets alone.
"""

from __future__ import annotations

from collections import OrderedDict
from types import MethodType

import repro.check.explore as explore_mod
from repro.check.explore import ExploreReport, run_node
from repro.common.errors import IsaError, SimulationError
from repro.htm.conflict import (
    PROCEED,
    SELF_ABORT,
    STALL,
    EagerDetector,
    LazyDetector,
)
from repro.isa.context import ExecOutcome
from repro.sim import ops as O


# ---------------------------------------------------------------------------
# The isinstance-chain interpreter
# ---------------------------------------------------------------------------

def execute_chain(cpu, op, now):
    """Execute ``op`` on ``cpu`` through the ``isinstance`` chain, with
    no instruction accounting."""
    machine = cpu.machine
    htm = machine.htm
    mem = machine.memmodel

    if isinstance(op, O.Load):
        action, value = htm.load(cpu.cpu_id, op.addr)
        if action == STALL:
            return ExecOutcome(stall=True)
        if action == SELF_ABORT:
            cpu._self_abort(op.addr)
            return ExecOutcome(stall=True)
        latency = mem.access(cpu.cpu_id, op.addr, False, now)
        return ExecOutcome(latency=latency, value=value)

    if isinstance(op, O.Store):
        action = htm.store(cpu.cpu_id, op.addr, op.value)
        if action == STALL:
            return ExecOutcome(stall=True)
        if action == SELF_ABORT:
            cpu._self_abort(op.addr)
            return ExecOutcome(stall=True)
        latency = mem.access(cpu.cpu_id, op.addr, True, now)
        return ExecOutcome(latency=latency)

    if isinstance(op, O.ImLoad):
        value = htm.im_load(cpu.cpu_id, op.addr)
        latency = mem.access(cpu.cpu_id, op.addr, False, now)
        return ExecOutcome(latency=latency, value=value)

    if isinstance(op, O.ImStore):
        htm.im_store(cpu.cpu_id, op.addr, op.value)
        latency = mem.access(cpu.cpu_id, op.addr, True, now)
        return ExecOutcome(latency=latency)

    if isinstance(op, O.ImStoreId):
        htm.im_store_id(cpu.cpu_id, op.addr, op.value)
        latency = mem.access(cpu.cpu_id, op.addr, True, now)
        return ExecOutcome(latency=latency)

    if isinstance(op, O.Release):
        released = htm.release(cpu.cpu_id, op.addr)
        return ExecOutcome(value=released)

    if isinstance(op, O.Alu):
        return ExecOutcome(latency=max(1, op.cycles))

    if isinstance(op, O.XBegin):
        level = htm.begin(cpu.cpu_id, op.open, now)
        return ExecOutcome(value=level)

    if isinstance(op, O.XValidate):
        publishing = cpu.commit_publishes()
        if not htm.validate(cpu.cpu_id):
            return ExecOutcome(stall=True)
        latency = 1
        if publishing and machine.config.detection == "lazy":
            latency = mem.arbitrate_commit(now)
        return ExecOutcome(latency=latency)

    if isinstance(op, O.XCommit):
        committed_level = cpu.depth()
        result = htm.commit(cpu.cpu_id)
        if result.kind != "flattened":
            cpu.isa.retire_level(
                committed_level, merged=result.kind == "closed")
        if result.kind in ("outer", "open"):
            latency = mem.commit_broadcast(
                cpu.cpu_id, result.written_words, now)
            if machine.config.double_buffering:
                cpu.stats.add("htm.hidden_commit_cycles", latency - 1)
                latency = 1
        else:
            latency = 1
        cpu.stats.add("htm.commit_cycles", latency)
        return ExecOutcome(latency=latency, value=result.kind)

    if isinstance(op, O.XAbort):
        if cpu.depth() < 1:
            raise IsaError("xabort outside a transaction")
        cpu.isa.xabort_code = op.code
        cpu.isa.viol_reporting = False
        cpu.pending_abort = True
        return ExecOutcome()

    if isinstance(op, O.XRwSetClear):
        target = op.level if op.level is not None else cpu.depth()
        work = cpu.do_rollback(target)
        latency = 1 + work * machine.config.undo_cycles_per_entry
        cpu.stats.add("htm.rollback_cycles", latency)
        return ExecOutcome(latency=latency)

    if isinstance(op, O.XRegRestore):
        return ExecOutcome()

    if isinstance(op, O.XVRet):
        cpu.isa.viol_reporting = True
        return ExecOutcome()

    if isinstance(op, O.XEnViolRep):
        cpu.isa.viol_reporting = True
        return ExecOutcome()

    if isinstance(op, O.XVClear):
        cpu.isa.clear_current(op.mask)
        return ExecOutcome()

    if isinstance(op, O.YieldCpu):
        if cpu.wake_tokens > 0:
            cpu.wake_tokens -= 1
            return ExecOutcome()
        return ExecOutcome(deschedule=True)

    if isinstance(op, O.Wake):
        machine.wake(op.cpu_id)
        return ExecOutcome()

    if isinstance(op, O.Fence):
        return ExecOutcome()

    if isinstance(op, O.SerialAcquire):
        return ExecOutcome(value=htm.try_acquire_serial(cpu.cpu_id))

    if isinstance(op, O.SerialRelease):
        htm.release_serial(cpu.cpu_id)
        return ExecOutcome()

    raise SimulationError(f"cpu {cpu.cpu_id}: not an operation: {op!r}")


def chain_step(cpu, op, now):
    """:func:`execute_chain` plus the instruction accounting of
    :meth:`repro.isa.context.Cpu._execute_step`."""
    outcome = execute_chain(cpu, op, now)
    if not outcome.stall:
        count = op.cycles if isinstance(op, O.Alu) else 1
        cpu.icount += count
        if cpu.dispatch_depth:
            cpu.handler_icount += count
    return outcome


def install_chain(machine):
    """Make every CPU of ``machine`` execute through the chain."""
    for cpu in machine.cpus:
        cpu.execute = MethodType(chain_step, cpu)
    return machine


# ---------------------------------------------------------------------------
# The full-scan conflict detectors
# ---------------------------------------------------------------------------

class NaiveLazyDetector(LazyDetector):
    """Commit-time detection scanning every other CPU's read-sets,
    posting in the same victim-major, unit-minor order."""

    def on_commit(self, cpu_id, written_units):
        if not written_units:
            return
        for victim_id, victim in enumerate(self._states):
            if victim_id == cpu_id:
                continue
            # One violation record per conflicting unit, so a re-invoked
            # handler sees each conflicting address in xvaddr (§4.6).
            for unit in sorted(written_units):
                mask = victim.rwsets.levels_reading(unit)
                if mask:
                    self._post(victim_id, mask, unit, cpu_id)


class NaiveEagerDetector(EagerDetector):
    """Access-time detection scanning every other CPU's read/write-sets;
    resolution is the indexed detector's own."""

    def on_load(self, cpu_id, unit):
        victims = []
        for victim_id, victim in enumerate(self._states):
            if victim_id == cpu_id:
                continue
            mask = victim.rwsets.levels_writing(unit)
            if mask:
                victims.append((victim_id, mask))
        if not victims:
            if self._stall_counts:
                self._stall_counts.pop(cpu_id, None)
            return PROCEED
        return self._resolve(cpu_id, unit, victims)

    def on_store(self, cpu_id, unit):
        victims = []
        for victim_id, victim in enumerate(self._states):
            if victim_id == cpu_id:
                continue
            mask = victim.rwsets.levels_touching(unit)
            if mask:
                victims.append((victim_id, mask))
        if not victims:
            if self._stall_counts:
                self._stall_counts.pop(cpu_id, None)
            return PROCEED
        return self._resolve(cpu_id, unit, victims)


def install_naive_detector(machine):
    """Replace ``machine``'s indexed detector with its full-scan twin,
    keeping the same stats scope and violation sink."""
    htm = machine.htm
    indexed = htm.detector
    cls = (NaiveLazyDetector if isinstance(indexed, LazyDetector)
           else NaiveEagerDetector)
    naive = cls(indexed._config, indexed._states, indexed._stats,
                indexed._index)
    naive.attach_sink(indexed._sink)
    htm.detector = naive
    return machine


# ---------------------------------------------------------------------------
# The eager-set cache
# ---------------------------------------------------------------------------

class EagerCache:
    """An LRU set-associative cache of line addresses.

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
        self._sets = [OrderedDict() for _ in range(self.n_sets)]
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

    def _set_for(self, line_addr):
        return self._sets[(line_addr // self.line_size) % self.n_sets]

    def lookup(self, addr):
        """True (and LRU-touch) if the line holding ``addr`` is resident."""
        line_size = self.line_size
        line = addr - addr % line_size
        cache_set = self._sets[(line // line_size) % self.n_sets]
        if line in cache_set:
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
        cache_set = self._sets[(line // line_size) % self.n_sets]
        if line in cache_set:
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
        cache_set = self._sets[(line // line_size) % self.n_sets]
        if line in cache_set:
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
        line = addr - addr % self.line_size
        return line in self._set_for(line)

    def resident_lines(self):
        """All resident line addresses (diagnostics / tests)."""
        lines = []
        for cache_set in self._sets:
            lines.extend(cache_set)
        return lines


def install_eager_caches(machine):
    """Replace every cache of ``machine``'s timing model with an
    :class:`EagerCache` twin: same geometry, stats scope, residency
    registry and owner, every set allocated and empty."""
    memmodel = machine.memmodel
    for caches in (memmodel.l1, memmodel.l2):
        for index, lazy in enumerate(caches):
            eager = EagerCache.__new__(EagerCache)
            vars(eager).update(vars(lazy))
            eager._sets = [OrderedDict() for _ in range(lazy.n_sets)]
            caches[index] = eager
    return machine


# ---------------------------------------------------------------------------
# The sleep-set-only unbounded enumeration
# ---------------------------------------------------------------------------

def explore_sleep_sets(program_name, config_name, seed=1, max_depth=None,
                       max_schedules=None, checkpoint=True, report=None):
    """Drain ``(program, config)``'s unbounded schedule space the way the
    explorer did before DPOR: generation ``b`` runs every child prefix
    of generation ``b - 1`` (:func:`repro.check.por.make_children`), and
    sleep sets abandon the runs a sibling covers.  Returns an
    :class:`~repro.check.explore.ExploreReport` with its verdicts in
    enumeration order and the fork-point cache counters."""
    out = ExploreReport(program=program_name, config=config_name,
                        seed=seed, preemption_bound=None,
                        max_depth=max_depth, checkpoint=checkpoint)
    cache = explore_mod._CHECKPOINTS
    before = dict(cache.stats)
    peak_live = 0
    frontier = [((), None)]
    try:
        while frontier:
            if max_schedules is not None:
                room = max_schedules - (out.explored + out.pruned)
                if len(frontier) > room:
                    frontier = frontier[:max(room, 0)]
                    out.truncated = True
                if not frontier:
                    break
            next_frontier = []
            for prefix, sleep in frontier:
                outcome = run_node(
                    program_name, config_name, prefix=prefix, sleep=sleep,
                    seed=seed, max_depth=max_depth, checkpoint=checkpoint)
                if outcome.pruned:
                    out.pruned += 1
                else:
                    out.explored += 1
                    out.verdicts.append(outcome.verdict)
                    if report is not None:
                        report(outcome.verdict)
                next_frontier.extend(outcome.children)
                peak_live = max(peak_live, len(cache))
            out.generations.append(len(frontier))
            frontier = next_frontier
    finally:
        stats = {key: cache.stats[key] - value
                 for key, value in before.items()}
        cache.clear()
    stats["peak_live"] = peak_live
    if checkpoint:
        out.checkpoint_stats = stats
    return out
