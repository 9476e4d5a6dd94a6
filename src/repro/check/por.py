"""Partial-order reduction for the explorer: footprints, sleep sets and
the race analysis behind source-set DPOR.

Everything here is machine-free.  It reads a recorded trace: per step,
the CPU chosen, the in-window candidates, the step's
:class:`Footprint` and the CPUs the step delivered to (a wake or a
posted violation).  :mod:`repro.check.explore` records the traces and
drives both searches; ``tests/test_por.py`` exercises this module on
synthetic traces.

**Dependence.**  Two steps are dependent when their footprints overlap
on a conflict unit with at least one write, or either is *global*
(:meth:`Footprint.depends`).

**Sleep sets** (Godefroid).  A branch seeds its child with the siblings
already explored at that state, filtered to those independent of the
child's first step (:func:`sleep_seed`).  The bounded search branches
on every in-window alternative at every step and prunes with sleep sets
alone (:func:`make_children`).

**Happens-before** (:func:`vector_clocks`) is the transitive closure of
four edge kinds between steps ``a < b``:

* program order: both steps ran on the same CPU;
* dependence: ``footprints[a].depends(footprints[b])``;
* delivery: ``a`` delivered to the CPU that runs ``b``;
* victim: the CPU that ran ``a`` receives a delivery from ``b``.

The last two are what a CPU's *pending* operation hangs on: a delivery
replaces it (a violation handler, a wake-up), so the victim's step and
the delivery do not commute.

**Races** (Abdulla, Aronis, Jonsson, Sagonas, "Optimal Dynamic Partial
Order Reduction", POPL 2014).  Steps ``i < j`` race when they ran on
different CPUs, a direct edge joins them, and no third step lies on a
happens-before path from ``i`` to ``j``.  For each race,
:func:`add_backtracks` applies the source-set rule at the state before
``i``: the *initials* of ``notdep(i).j`` (the steps after ``i`` that do
not happen after it, then ``j``) are the CPUs whose first step there
nothing else in the sequence happens before.  Running any one of them
at ``i`` reverses the race, so if none is in ``backtrack(i)`` yet (or
asleep at ``i``) the first one in the window is added.  The candidate
window makes enabledness depend on time: when no initial is in the
window at ``i``, every in-window candidate is added instead, which is
the sleep-set search's rule applied at that one state (counted as a
window fallback).
"""

from __future__ import annotations

from collections import namedtuple
from functools import partial

_EMPTY = frozenset()

#: Pseudo-unit serializing the commit path: commits, validates,
#: devalidates and rollbacks all touch it, so their mutual order is
#: never treated as exchangeable.  Real units are non-negative address
#: or line indices, so -1 can never collide.
TOKEN = -1


class Footprint(namedtuple("Footprint", "reads writes global_",
                           defaults=(_EMPTY, _EMPTY, False))):
    """What one scheduling step touched, at conflict-unit granularity.

    ``global_`` marks actions ordered against everything (serial-mode
    transitions, wakes, any stalled/aborted access, non-transactional
    publishing stores): they are dependent with every other step.
    Commits are *not* global: a commit's footprint is its published
    write-set plus the :data:`TOKEN` pseudo-unit, so it commutes with
    accesses to unrelated units.
    """

    __slots__ = ()

    def depends(self, other):
        """Conservative dependence: do the two steps fail to commute?"""
        if self.global_ or other.global_:
            return True
        writes = self.writes
        return not (writes.isdisjoint(other.reads)
                    and writes.isdisjoint(other.writes)
                    and other.writes.isdisjoint(self.reads))


#: ``footprint((reads, writes, global_))`` builds a :class:`Footprint`
#: without the Python-level ``__new__`` (one per recorded step).
footprint = partial(tuple.__new__, Footprint)

GLOBAL_FOOTPRINT = Footprint(global_=True)

#: The footprint of a step that touched nothing.
EMPTY_FOOTPRINT = Footprint()


# ----------------------------------------------------------------------
# Sleep sets
# ----------------------------------------------------------------------


def sleep_seed(entries, alt, alt_fp):
    """Godefroid's rule: the child that runs ``alt`` first sleeps on
    every ``(cpu, (footprint, active_from))`` of ``entries`` (inherited
    entries and explored siblings) provably independent of ``alt``'s
    first step.  Unknown and global footprints never enter.

    ``active_from`` is the step index at which an entry's coverage
    claim starts: the recorder's live removal only considers steps at or
    past it, so an entry inherited through a replayed prefix is not
    erased by steps that logically precede its creation.  Returns the
    seed as a dict ``cpu -> (footprint, active_from)``."""
    seed = {}
    for cpu, entry in entries:
        if cpu == alt:
            continue
        fp = entry[0]
        if fp is None or fp.global_:
            continue
        if not fp.depends(alt_fp):
            seed[cpu] = entry
    return seed


def pending_footprints(choices, footprints, deliveries, cpu_ids, lo=0):
    """``pending[i - lo][cpu]`` = the footprint ``cpu`` would execute if
    scheduled at step boundary ``i``, or None if unknown, for ``i`` in
    ``[lo, len(choices))`` (the steps a node branches at).

    A non-running CPU's next operation is fixed until it runs or
    receives a delivery, so its footprint is the one it executed at the
    first later step where it ran — invalidated by any intervening
    delivery to it.
    """
    n = len(choices)
    pending = [None] * (n - lo)
    nxt = dict.fromkeys(cpu_ids)
    for i in range(n - 1, lo - 1, -1):
        cur = nxt.copy()
        chosen = choices[i]
        for cpu in deliveries[i]:
            if cpu != chosen and cpu in cur:
                cur[cpu] = None
        cur[chosen] = footprints[i]
        pending[i - lo] = nxt = cur
    return pending


def make_children(prefix, policy, recorder, max_depth, n_cpus):
    """The child prefixes branching off a node's trace, with their
    sleep-set seeds, in enumeration order: every in-window alternative
    at every step in ``[len(prefix), max_depth)``.  Without a recorder
    (unpruned runs) no child sleeps: its seed is None."""
    choices = policy.choices
    candidates = policy.candidates
    n = len(choices)
    hi = n if max_depth is None else min(n, max_depth)
    lo = len(prefix)
    children = []
    if recorder is None:
        for i in range(lo, hi):
            for alt in candidates[i]:
                if alt != choices[i]:
                    children.append((tuple(choices[:i]) + (alt,), None))
        return children
    # A run that died mid-step (e.g. the cycle limit) chose its last
    # step but never closed it: branch only over fully recorded steps.
    n = min(n, len(recorder.footprints))
    hi = min(hi, n)
    pending = None
    for i in range(lo, hi):
        if len(candidates[i]) < 2:
            continue  # a lone candidate has no sibling
        if pending is None:
            pending = pending_footprints(
                choices[:n], recorder.footprints, recorder.deliveries,
                range(n_cpus), lo)
        sleep_i = recorder.sleep_before[i]
        pending_i = pending[i - lo]
        # The already-run sibling (this trace's choice) enters with its
        # *exact* footprint; earlier alternatives with their pending
        # estimates.  New sibling entries become active at the branch
        # step itself, so the child run's removal logic sees the branch
        # action's own deliveries and dependences.
        explored = [(choices[i], (recorder.footprints[i], i))]
        for alt in candidates[i]:
            if alt == choices[i] or alt in sleep_i:
                continue
            alt_fp = pending_i.get(alt) or GLOBAL_FOOTPRINT
            seed = sleep_seed(list(sleep_i.items()) + explored, alt,
                              alt_fp)
            children.append((tuple(choices[:i]) + (alt,), seed))
            explored.append((alt, (pending_i.get(alt), i)))
    return children


# ----------------------------------------------------------------------
# Happens-before, races and source sets
# ----------------------------------------------------------------------


def vector_clocks(choices, footprints, deliveries, n_cpus, lo=0,
                  known=()):
    """Happens-before over a trace as one vector clock per step, and the
    races whose later step is at or past ``lo``.

    ``clocks[k][p]`` is one more than the index of the latest step of
    CPU ``p`` that happens before step ``k`` or is ``k`` (0: none), so
    step ``i`` happens before step ``k`` exactly when
    ``clocks[k][choices[i]] > i``.  Races come out as ``(i, j)`` pairs
    in order of ``j``.  ``known`` may hold the clocks of a prefix of the
    trace (a step's clock depends only on the steps up to it); those are
    reused, not recomputed.

    Only a handful of earlier steps can have a direct edge to ``j``
    that no other path covers: each CPU's latest step (for a global
    ``j``, and for the CPUs ``j`` delivers to), the latest global step,
    each unit's latest writer and its readers since, and the deliveries
    to ``j``'s CPU since that CPU last ran.  They are visited latest
    first, so one that an already-joined clock covers is no race.
    """
    n = len(footprints)
    clocks = list(known[:n])
    races = []
    last = [-1] * n_cpus
    last_global = -1
    writer = {}
    readers = {}
    delivered_to = {}
    for j in range(n):
        p = choices[j]
        fp = footprints[j]
        targets = deliveries[j]
        if j >= len(clocks):
            preds = set(delivered_to.get(p, ()))
            if fp.global_:
                preds.update(last)
            elif last_global >= 0:
                preds.add(last_global)
            for unit in fp.reads:
                w = writer.get(unit)
                if w is not None:
                    preds.add(w)
            for unit in fp.writes:
                w = writer.get(unit)
                if w is not None:
                    preds.add(w)
                r = readers.get(unit)
                if r:
                    preds.update(r.values())
            for q in targets:
                if q != p:
                    preds.add(last[q])
            own = last[p]
            clock = clocks[own].copy() if own >= 0 else [0] * n_cpus
            preds.discard(-1)
            for i in sorted(preds, reverse=True):
                if clock[choices[i]] > i:
                    continue  # already ordered through a later step
                if j >= lo:
                    races.append((i, j))
                clock = [a if a >= b else b
                         for a, b in zip(clock, clocks[i])]
            clock[p] = j + 1
            clocks.append(clock)
        delivered_to.pop(p, None)
        for q in targets:
            if q != p:
                delivered_to.setdefault(q, []).append(j)
        last[p] = j
        if fp.global_:
            last_global = j
        for unit in fp.writes:
            writer[unit] = j
            readers.pop(unit, None)
        for unit in fp.reads:
            if unit not in fp.writes:
                readers.setdefault(unit, {})[p] = j
    return clocks, races


def initials(choices, clocks, i, j):
    """The initials of ``notdep(i).j``, in the order their first steps
    appear: the CPUs whose first step in that sequence no other of its
    steps happens before."""
    owner = choices[i]
    first = {}
    out = []
    for k in range(i + 1, j + 1):
        clock = clocks[k]
        if k < j and clock[owner] > i:
            continue  # happens after i: not in notdep(i)
        p = choices[k]
        if p in first:
            continue
        # A CPU's steps in notdep(i) are a prefix of its steps after i,
        # so one of them happens before k iff its first one does.
        if all(clock[q] <= step for q, step in first.items()):
            out.append(p)
        first[p] = k
    return out


class RaceStats:
    """Counters of one DPOR search: races analysed, CPUs inserted into
    backtrack sets, and window fallbacks (races with no in-window
    initial, where every in-window candidate was added)."""

    __slots__ = ("races", "insertions", "fallbacks")

    def __init__(self):
        self.races = 0
        self.insertions = 0
        self.fallbacks = 0


def add_backtracks(choices, candidates, clocks, races, backtrack,
                   sleeping, stats, hi=None):
    """Apply the source-set rule to every race ``(i, j)`` with
    ``i < hi``: make sure ``backtrack[i]`` holds an initial of
    ``notdep(i).j`` (see the module docstring).

    ``backtrack[i]`` is a mutable set of CPUs (those explored at ``i``
    included) and ``sleeping[i]`` the CPUs asleep at ``i``; a sleeping
    in-window initial already covers the race.  ``candidates[i]`` is the
    window, in pick order.  Counts go to ``stats``.
    """
    for i, j in races:
        if hi is not None and i >= hi:
            continue
        stats.races += 1
        have = backtrack[i]
        window = candidates[i]
        asleep = sleeping[i]
        first = initials(choices, clocks, i, j)
        if any(p in have or (p in asleep and p in window) for p in first):
            continue
        for p in window:
            if p in first:
                have.add(p)
                stats.insertions += 1
                break
        else:
            stats.fallbacks += 1
            for p in window:
                if p not in have:
                    have.add(p)
                    stats.insertions += 1
