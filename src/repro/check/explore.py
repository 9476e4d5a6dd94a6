"""Exhaustive schedule-space exploration: a stateless model checker.

The fuzzer (:mod:`repro.check.fuzz`) *samples* interleavings; this
module *enumerates* them.  Every run of the simulator is a pure function
of ``(program, config, fault, seed, schedule)``, and a schedule is fully
determined by the sequence of choices the engine's
:class:`~repro.sim.schedule.SchedulePolicy` makes — so the checker
explores the schedule space the way stateless model checkers do
(Godefroid's VeriSoft): re-run the program from the start under a
:class:`~repro.sim.schedule.ControlledPolicy` that replays a chosen
*prefix* of scheduling decisions and records the in-window alternatives
at every choice point, then branch on the recorded alternatives.

**Enumeration.**  A *bounded* search (finite ``preemption_bound``) and
an unpruned one go breadth-first over generations.  The root node is
the empty prefix — the deterministic schedule.  After running a node's
prefix ``P`` to completion (trace ``T``), each step ``i >= len(P)``
with an unexplored alternative ``a`` spawns the child prefix
``T[:i] + (a,)``.  Every child deviates from its parent's continuation
at exactly one new point, so generation ``b`` of the search contains
exactly the schedules reachable with ``b`` forced deviations from the
deterministic pick — and iterating the generations ``0, 1, .., bound``
is *iterative preemption bounding* in the delay-bounding style of CHESS
(Musuvathi & Qadeer): shallow bugs surface first, and ``bound = 0`` is
precisely the fuzzer's ``det`` schedule.  Each complete schedule is
visited exactly once (two distinct prefixes always complete to
distinct choice sequences).

An *unbounded pruned* drain runs source-set DPOR instead (Abdulla,
Aronis, Jonsson, Sagonas, POPL 2014; :func:`_explore_dpor` and
:mod:`repro.check.por`).  It goes depth-first, one run at a time, and
branches only where two dependent steps of a run race: at the state
before the earlier step it adds a CPU whose first step reverses the
race.  Branching on every alternative, as the generations do, completes
each interleaving class several times over (1 176 judged runs for the
175 classes of the seed-1 ``litmus-sb`` drain at depth 48); DPOR
judges 228 runs there and abandons none.  DPOR and preemption bounds do
not compose naively (Coons, Musuvathi, McKinley, OOPSLA 2013), so a
bounded search keeps the generations.

**Pruning.**  Exploring both orders of two *independent* steps is
wasted work (they commute), so each branch seeds its child with a
*sleep set* (Godefroid): the siblings already explored at that state,
remembered with their read/write **footprints** at the hardware's
conflict-unit granularity.  A sleeping CPU is skipped by the default
pick until an executed step is *dependent* on its entry (footprints
overlap on a unit, or either is a global action); if every candidate is
asleep the run is abandoned (:class:`~repro.sim.schedule.SchedulePruned`)
— that continuation is covered elsewhere.  Dependence is judged
conservatively but at unit granularity: transactional loads/stores that
PROCEED touch one unit; a commit touches its published write-set plus a
``TOKEN`` pseudo-unit that serializes the whole commit path (validates,
devalidates and rollbacks touch TOKEN too, rollbacks also their
retracted units); serial-mode transitions, wakes and any
stalled/aborted access are *global* (dependent with everything); a
posted violation is a targeted *delivery* to its victim, which wakes
any sleep entry for that CPU.  A non-running CPU's pending footprint is
inferred from the first later step where it ran, invalidated by any
intervening delivery (wake or violation) to it — a CPU's next operation
is fixed by its own last step until it runs again or receives a
delivery, which is what makes the estimate sound.  Unknown footprints
never enter a sleep set.  DPOR's happens-before adds the deliveries to
dependence: a delivery orders the victim's next step after it, and a
victim's step orders a later delivery to it after that step.

Pruning is enabled only where it is sound:

* **Lazy detection only.**  Eager arbitration compares transaction
  timestamps (``htm/conflict.py``), and timestamps shift when
  independent steps reorder — so on ``eager-*`` configs the checker
  explores unpruned.  (Lazy arbitration is commit order, and the ``TOKEN``
  pseudo-unit keeps every pair of commit-path actions ordered.)
* **No fault injection.**  An injector perturbs runs through state the
  footprints do not model, so fault exploration is unpruned too.
* Sleep sets guarantee *coverage of every Mazurkiewicz class* only for
  unbounded exploration; under a finite ``preemption_bound`` a pruned
  branch's representative may need more deviations than the bound
  allows.  ``prune=False`` restores plain bounded enumeration.
* The candidate window makes a CPU's enabledness depend on time, and a
  CPU leaving the window is no dependent step.  When no CPU that would
  reverse a race is in the window at its state, DPOR branches on every
  in-window candidate there (a *window fallback*, counted in the
  report).  ``tests/test_por.py`` checks that DPOR completes every
  class the sleep-set enumeration (``tests/reference.py``) completes.

**Counterexamples.**  A failing schedule is reported as its *deviation
list* — the ``(step, cpu)`` pairs where it departs from the
deterministic pick — which replays exactly (:func:`replay`, CLI
``python -m repro explore --replay prog:config:3@1,7@0``) and shrinks
through the same greedy loop as the fuzzer's change-points
(:func:`repro.check.fuzz.shrink_change_points`).

**Parallelism.**  :func:`explore` runs one (program, config) search
serially, in-process.  The unit that ``explore --jobs N`` shards is a
whole search: one :class:`~repro.harness.parallel.CaseSpec` per pair
through :func:`~repro.harness.parallel.run_campaign`, whose reports come
back in enumeration order, so the output is the serial run's whatever
``N`` is (``conform`` shards its drains the same way).  Sharding one
search node by node lost to serial: a node costs less than its pickling
and the barrier at each generation.  A worker that crashes or hangs on
a pair becomes that pair's report (:func:`failed_search`).

The explorer uses the fuzzer's candidate window
(:data:`~repro.sim.schedule.DEFAULT_WINDOW`): the explored space is
exactly the interleavings the randomized policies can reach, and the
finite window doubles as the termination guarantee under sleep sets —
a CPU spinning on units independent of every sleep entry advances its
local time until the sleeper is the only in-window candidate, at which
point the run prunes instead of starving it forever.
"""

from __future__ import annotations

import dataclasses
from functools import partial

from repro.common.errors import ReproError
from repro.common.params import LAZY
from repro.htm.conflict import PROCEED
from repro.faults import FaultInjector, make_plan
from repro.harness.parallel import CaseSpec, call_guarded
from repro.mem.layout import SharedArena
from repro.runtime.core import Runtime
from repro.sim.engine import Machine
from repro.sim.schedule import (
    DEFAULT_WINDOW,
    ControlledPolicy,
    SchedulePruned,
)
from repro.sim.snapshot import SnapshotError, copy_value, load, save

from repro.obs.observer import Observer
from repro.obs.profiler import CycleProfiler
from repro.obs.sinks import RingSink
from repro.sim.trace import Tracer

from repro.check.fuzz import (
    CONFIGS,
    FAULTS,
    TRACE_RING,
    build_config,
    collect_violations,
)
from repro.check.history import HistoryRecorder
from repro.check.oracles import OracleViolation, check_cycle_conservation
from repro.check.por import (
    EMPTY_FOOTPRINT,
    GLOBAL_FOOTPRINT,
    TOKEN,
    RaceStats,
    add_backtracks,
    footprint as _footprint,
    make_children,
    pending_footprints,
    sleep_seed,
    vector_clocks,
)
from repro.check.programs import make_program
from repro.spec.replay import freeze

#: The explorer's candidate window (cycles) — the fuzzer's default.  A
#: *finite* window is what guarantees termination under sleep sets: a
#: CPU spinning on a unit independent of every sleep entry advances its
#: local time until the sleeper is the only in-window candidate, at
#: which point the run prunes instead of livelocking.  (An infinite
#: window starves the sleeper forever and hits the cycle limit.)  The
#: deterministic pick is window-independent, so bound 0 still equals
#: the fuzzer's ``det`` schedule.
EXPLORE_WINDOW = DEFAULT_WINDOW

_EMPTY = frozenset()


class StepRecorder(Observer):
    """Per-step footprint/delivery recorder and live sleep-set updater.

    An :class:`~repro.obs.observer.Observer` of the HTM's access, token,
    commit, undo and serial-mode events plus the machine's ``wake`` and
    ``queued`` events; each ``step`` event closes one footprint.  While
    running, any step dependent on a sleep entry — or delivering to it —
    wakes that entry (``policy.sleep``), keeping the pruning sound.
    Unlike the other observers it does not attach itself: the caller
    brackets the run with ``machine.observe(recorder)`` and
    ``machine.unobserve(recorder)``, so one pooled recorder can serve
    many restored nodes.
    """

    def __init__(self, machine, policy, sleep_entries=None,
                 sleep_from=0):
        self.machine = machine
        self.policy = policy
        self.sleep_from = sleep_from
        #: Live sleep entries: cpu -> (Footprint of its covered pending
        #: op, step index the coverage claim starts at).  Replaced, never
        #: mutated, when an entry wakes, so ``sleep_before`` shares it.
        self._sleep = dict(sleep_entries or {})
        #: Closed per-step records, index-aligned with ``policy.choices``.
        self.footprints = []
        self.deliveries = []
        #: Sleep entries *before* each step executed.
        self.sleep_before = []
        self._acc_reads = set()
        self._acc_writes = set()
        self._acc_delivered = set()
        self._acc_global = False
        #: Per-CPU accumulated speculative units (reads, writes) of the
        #: live transaction(s) — what a commit publishes and a rollback
        #: retracts.  Conservative supersets: never trimmed on partial
        #: rollback, cleared only when the CPU leaves transactional mode.
        self._cpu_reads = {cpu.cpu_id: set() for cpu in machine.cpus}
        self._cpu_writes = {cpu.cpu_id: set() for cpu in machine.cpus}

    # ------------------------------------------------------------------

    def _unit(self, cpu_id, addr):
        return self.machine.htm.states[cpu_id].rwsets.unit_of(addr)

    def on_step(self, cpu):
        """Seal the step that just executed."""
        sleep = self._sleep
        self.sleep_before.append(sleep)
        reads = self._acc_reads
        writes = self._acc_writes
        if reads or writes:
            footprint = _footprint((frozenset(reads), frozenset(writes),
                                    self._acc_global))
            reads.clear()
            writes.clear()
        else:
            footprint = (GLOBAL_FOOTPRINT if self._acc_global
                         else EMPTY_FOOTPRINT)
        self._acc_global = False
        delivered = self._acc_delivered
        if delivered:
            delivered = frozenset(delivered)
            self._acc_delivered.clear()
        else:
            delivered = _EMPTY
        self.footprints.append(footprint)
        self.deliveries.append(delivered)
        if sleep and (delivered or footprint is not EMPTY_FOOTPRINT):
            # A dependent step — or a delivery, which changes the
            # sleeper's pending op — invalidates the entry's coverage
            # claim, so the sleeper becomes schedulable again.  Steps
            # before an entry's ``active_from`` logically precede its
            # creation and are ignored.  A step that touched nothing
            # commutes with every entry (none is global).
            step_index = len(self.footprints) - 1
            woken = [cpu for cpu, (fp, active_from) in sleep.items()
                     if step_index >= active_from
                     and (cpu in delivered or footprint.depends(fp))]
            if woken:
                self._sleep = {cpu: entry for cpu, entry in sleep.items()
                               if cpu not in woken}
                for cpu in woken:
                    self.policy.sleep.discard(cpu)

    # ------------------------------------------------------------------

    def on_load(self, cpu_id, addr, unit, level, action):
        if action == PROCEED:
            self._acc_reads.add(unit)
            if level:
                self._cpu_reads[cpu_id].add(unit)
        else:
            self._acc_global = True

    def on_store(self, cpu_id, addr, unit, level, action):
        if action != PROCEED:
            self._acc_global = True
        elif level:
            self._acc_writes.add(unit)
            self._cpu_writes[cpu_id].add(unit)
        else:
            # Non-transactional store: a one-word commit under strong
            # atomicity — a publishing (global) action.
            self._acc_global = True

    def on_im_load(self, cpu_id, addr, value):
        self._acc_reads.add(self._unit(cpu_id, addr))

    def on_im_store(self, cpu_id, addr, value):
        self._acc_writes.add(self._unit(cpu_id, addr))

    def on_im_store_id(self, cpu_id, addr, value):
        self._acc_writes.add(self._unit(cpu_id, addr))

    def on_release(self, cpu_id, addr, released):
        # Dropping a read-set entry changes future conflict detection
        # on the unit: record it as an access.
        self._acc_writes.add(self._unit(cpu_id, addr))

    # `begin` stays local: it touches only the CPU's own state plus the
    # diagnostic txid counter (never consulted by lazy arbitration — the
    # only mode that prunes).

    def _touch_token(self):
        self._acc_reads.add(TOKEN)
        self._acc_writes.add(TOKEN)

    def on_validate(self, cpu_id, ok):
        self._touch_token()

    def on_devalidate(self, cpu_id, level):
        self._touch_token()

    def on_commit(self, cpu_id, result, level, began_at, reads, writes):
        # The commit path is unit-scoped rather than global: a commit
        # publishes its accumulated write-set (dependent with any access
        # to those units) and serializes on TOKEN against every other
        # commit-path action.  Victims it violates are covered by the
        # write-set overlap plus the ``queued`` delivery marks.
        self._touch_token()
        self._acc_writes.update(self._cpu_writes[cpu_id])
        if not self.machine.htm.states[cpu_id].levels:
            self._cpu_reads[cpu_id].clear()
            self._cpu_writes[cpu_id].clear()

    def _undo(self, cpu_id, clear):
        # A rollback retracts the transaction's index entries: dependent
        # with commits probing those units (and with the commit path via
        # TOKEN), independent of accesses to unrelated units.  The
        # accumulated sets are conservative supersets of what the
        # rollback actually discards.
        self._touch_token()
        self._acc_writes.update(self._cpu_reads[cpu_id])
        self._acc_writes.update(self._cpu_writes[cpu_id])
        if clear or not self.machine.htm.states[cpu_id].levels:
            self._cpu_reads[cpu_id].clear()
            self._cpu_writes[cpu_id].clear()

    def on_rollback_to(self, cpu_id, target_level, now, work):
        self._undo(cpu_id, clear=False)

    def on_abandon_all(self, cpu_id, work):
        self._undo(cpu_id, clear=True)

    def on_try_acquire_serial(self, cpu_id, acquired):
        self._acc_global = True

    def on_release_serial(self, cpu_id):
        self._acc_global = True

    def on_wake(self, cpu_id):
        self._acc_global = True
        self._acc_delivered.add(cpu_id)

    def on_queued(self, violation):
        # A violation post is a targeted delivery, not a global action:
        # its cause is already visible as a unit overlap with the
        # poster's footprint, and the delivery mark both wakes any sleep
        # entry for the victim and invalidates its pending-op estimate.
        self._acc_delivered.add(violation.victim)


# ----------------------------------------------------------------------
# Checkpointed exploration: fork-point checkpoints handed to children
# ----------------------------------------------------------------------
#
# A node run is a pure function of its choice prefix, and every child
# shares all but its last choice with its parent — so the stateless
# "replay from cycle 0" discipline re-executes the same prefix over and
# over.  Instead, a node captures a mid-run machine snapshot
# (:mod:`repro.sim.snapshot`) at each of its branch steps in
# ``[len(P), max_depth)`` — where :class:`ControlledPolicy` calls its
# ``branch_hook``, by the rule :func:`repro.check.por.make_children`
# applies — and deposits it with one use per child that step actually
# produced.  A child with prefix ``P`` forks at its branch step
# ``len(P) - 1``; the entry is dropped when its last child has restored
# it.
#
# Soundness rests on three facts:
#
# * **Machine state is a function of the choices alone.**  Two runs that
#   made the same choice sequence stepped the same CPUs through the same
#   ops, whatever sleep sets or forced maps *led* to those choices — so
#   a checkpoint deposited by any node serves any other node whose
#   prefix extends the checkpoint's choices.  The recorded candidate
#   lists, footprints, deliveries, histories and cycle books are equally
#   choice-determined, so the observers restore from the same entry.
# * **The fork point is the branch step, never past it.**  A child's
#   *new* sleep entries activate at the branch step ``len(prefix) - 1``
#   (see :func:`repro.check.por.make_children`), and the recorder's
#   removal rule may fire at exactly that step — so restoring past it
#   could skip a wake-up and prune a schedule the stateless run
#   explores.  Forking at
#   ``s = len(prefix) - 1`` runs the branch step itself live, keeping
#   every sleep-set decision of this node inside the resumed portion.
#   Inherited entries survive all earlier steps by construction: the
#   parent executed the identical steps with the entry live and did not
#   remove it, and the removal rule is deterministic in (footprint,
#   deliveries, entry).
# * **The policy is not in the snapshot.**  Each child runs its own
#   :class:`ControlledPolicy` — sleep set, ``sleep_from``, and a forced
#   map holding only the fork step's choice, the one prefix choice the
#   resumed run still makes — and the checkpoint carries only the
#   recorded ``choices``/``candidates``/``divergences`` prefix
#   (identical to what a faithful replay of the prefix would have
#   recorded), which :meth:`_NodeContext.resume` preloads into it.
#
# A DPOR drain (:func:`_explore_dpor`) uses the same entries without the
# cache: they live on its DFS stack, one per state at most, captured by
# a run only at the states below its fork that still have a CPU to
# explore, and released when the state is popped.  A child resumes from
# the nearest entry at or before its fork and forces the gap; the same
# three facts make that exact (an entry's inherited sleep entries
# survived the gap in the run that recorded the state).
#
# A node pays only for what its outcome reads:
#
# * **Hand-off on last use.**  Every capture is a copy; a deposit sets
#   the snapshot's ``uses`` to its children's count, and the child that
#   uses it up takes the copies over (machine containers, recorder
#   sets, live history frames) instead of copying them again.  In the
#   two-CPU litmus drains every entry has one child.
# * **Bound CPUs only.**  The snapshot and the observer books cover the
#   CPUs a program is bound to; the others never leave their just-built
#   state (tests/test_explore_checkpoint.py pins that after a drain).
# * **Books installed once.**  A restore re-runs setup and ghost replay
#   with the pooled observers attached, but no event fires until the
#   engine steps, so :meth:`_NodeContext.resume` installs every book
#   once, after the restore.
# * **No trace ring on the node.**  Only a failing verdict reads the
#   trace tail; :func:`_failure_trace` rebuilds it by replaying that one
#   schedule with a tracer attached.
#
# Entries no child consumes (a frontier cut by ``max_schedules``, a
# child whose run crashed before its lookup) stay in the cache until
# :func:`explore` empties it on its way out, however the search ends.
#
# The cache is verified differentially: ``--no-checkpoint`` keeps the
# stateless path, and the conformance gate asserts verdict-for-verdict
# equality between the two modes (tests/test_explore_checkpoint.py).
# Any :class:`SnapshotError` falls back to the stateless path for that
# node (counted in ``fallbacks``) — checkpointing is an accelerator,
# never a semantic dependency.


class _Checkpoint:
    """One fork-point state: the machine snapshot plus the observer
    state (recorder, history, profiler) that goes with it."""

    __slots__ = ("snapshot", "policy", "recorder", "history", "profiler",
                 "uses", "__weakref__")


class CheckpointCache:
    """Fork-point checkpoints awaiting their children.

    Keys are ``(base, choices)``: ``base`` pins everything else a run
    depends on — ``(program, config, fault, seed, recording)`` — so a
    lookup can only ever hit a state its own schedule would reach.
    Every lookup consumes one use, and an entry goes with its last.
    """

    def __init__(self):
        self._entries = {}
        self.stats = {"hits": 0, "misses": 0, "deposits": 0,
                      "fallbacks": 0}

    def lookup(self, base, prefix):
        """Consume one use of the checkpoint ``prefix`` forks from.

        The fork point is step ``len(prefix) - 1`` (see the note
        above); returns the entry, or None on a miss."""
        key = (base, tuple(prefix[:-1]))
        entry = self._entries.get(key) if prefix else None
        if entry is None:
            self.stats["misses"] += 1
            return None
        entry.uses -= 1
        if entry.uses <= 0:
            del self._entries[key]
        self.stats["hits"] += 1
        return entry

    def deposit(self, key, entry):
        self._entries[key] = entry
        self.stats["deposits"] += 1

    def __len__(self):
        return len(self._entries)

    def clear(self):
        self._entries.clear()


#: The process's cache; :func:`explore` empties it when it returns.
_CHECKPOINTS = CheckpointCache()

class _NodeContext:
    """One process's reusable restore target: a machine with the history
    recorder and profiler permanently attached, plus a pooled
    :class:`StepRecorder` subscribed only while pruning nodes run.  It
    stays subscribed from one pruning node to the next: re-subscribing
    rebuilds a tuple per recorded event, which costs more per node than
    the idle subscription (no event fires while a checkpoint restores).

    Constructing the observers costs more than a short resumed run, so
    hit-path nodes share one context per (program, config) and
    overwrite its state from the checkpoint instead of rebuilding it.
    Only the restore path may use a context: a restore leaves the data
    plane to :func:`repro.sim.snapshot.restore`'s final load, so a
    stateless (cache-miss) run always builds fresh.
    """

    __slots__ = ("machine", "recorder", "history", "profiler")

    def __init__(self, config):
        placeholder = ControlledPolicy(window=EXPLORE_WINDOW)
        self.machine = Machine(config, policy=placeholder)
        self.recorder = StepRecorder(self.machine, placeholder)
        self.history = HistoryRecorder(self.machine)
        self.profiler = CycleProfiler(self.machine)

    def resume(self, entry, policy, sleep_entries, sleep_from, record,
               take):
        """Install a restored node's ``policy`` and load the observers'
        books from ``entry``, once, after the machine restored.

        Every book is replaced or refilled, never left from the previous
        node; the lists cached checkpoints share with a length bound are
        sliced, not cleared.  The unbound CPUs' books are never touched
        (they stay empty).  ``take`` hands the entry's copied containers
        over: this is its last use."""
        machine = self.machine
        machine.policy = policy
        bound = machine._bound_cpus
        (choices, n_choices, candidates, n_candidates,
         divergences, n_divergences) = entry.policy
        policy.choices = choices[:n_choices]
        policy.candidates = candidates[:n_candidates]
        policy.divergences = divergences[:n_divergences]
        recorder = self.recorder
        if record:
            # ``sleep_before`` is one shared view of the node's initial
            # entries per recorded step — exact, because no entry of
            # *this* node can be removed before the branch step (the
            # fork-point constraint above).
            footprints, deliveries, n, cpu_reads, cpu_writes = (
                entry.recorder)
            recorder.policy = policy
            recorder.sleep_from = sleep_from
            recorder._sleep = sleep_entries
            recorder.footprints = footprints[:n]
            recorder.deliveries = deliveries[:n]
            recorder.sleep_before = [sleep_entries] * n
            recorder._acc_reads.clear()
            recorder._acc_writes.clear()
            recorder._acc_delivered.clear()
            recorder._acc_global = False
            for cpu_id, reads, writes in zip(bound, cpu_reads, cpu_writes):
                recorder._cpu_reads[cpu_id] = reads if take else set(reads)
                recorder._cpu_writes[cpu_id] = (writes if take
                                                else set(writes))
            machine.observe(recorder)
        else:
            machine.unobserve(recorder)
        # Committed/aborted records are immutable once appended, so the
        # lists are shared with a length bound; only the live frames
        # were copied (see _capture_hook).
        committed, n_committed, aborted, n_aborted, frames, seq = (
            entry.history)
        history = self.history
        history.history.committed = committed[:n_committed]
        history.history.aborted = aborted[:n_aborted]
        for cpu_id, live in zip(bound, frames):
            history._frames[cpu_id] = live if take else copy_value(live)
        history._seq = seq
        profiler = self.profiler
        profiler._account = None
        for cpu_id, saved in zip(bound, entry.profiler):
            load(profiler._cpu[cpu_id], saved)


#: Restore-target contexts, one per (program, config) per process.
_CONTEXTS = {}


def _checkpoint_supported(program_name, config_name, fault):
    """Where checkpointing is enabled.  Fault runs are excluded for
    correctness — the injector holds plan state outside the snapshot.
    The litmus/lazy gate is conservatism: those runs' verdicts read
    only machine state (memory, results, history), never program-object
    side state, and lazy detection is where exploration volume lives."""
    return (fault is None
            and program_name.startswith("litmus-")
            and CONFIGS.get(config_name, {}).get("detection", LAZY) == LAZY)


def _node_setup(program_name, seed):
    """The ``setup_fn`` a restore re-runs to rebuild coroutine frames
    (identical to the stateless path's bring-up; programs derive all
    randomness from ``seed``, so the rebuild is deterministic)."""
    def setup(machine):
        runtime = Runtime(machine)
        arena = SharedArena(machine)
        program = make_program(program_name, seed=seed)
        program.setup(machine, runtime, arena)
        return program
    return setup


def _restore_node(program_name, config_name, entry, seed):
    """Restore ``entry``'s snapshot onto this process's pooled node
    context (building it on first use)."""
    key = (program_name, config_name)
    ctx = _CONTEXTS.get(key)
    if ctx is None:
        program = make_program(program_name, seed=seed)
        ctx = _NodeContext(build_config(config_name, program))
        _CONTEXTS[key] = ctx
    program = ctx.machine.restore(
        entry.snapshot, _node_setup(program_name, seed))
    return ctx, program


def _capture(machine, recorder, history_recorder, profiler):
    """One :class:`_Checkpoint` of ``machine`` and its observers at the
    current step boundary, where every observer is quiescent: the
    recorder's accumulators are empty and the profiler's books are
    settled.  Like the snapshot, the per-CPU observer books cover the
    bound CPUs only."""
    entry = _Checkpoint()
    entry.uses = None
    entry.snapshot = machine.snapshot()
    bound = entry.snapshot.shape.bound
    # The policy's recordings are append-only for the node's lifetime,
    # so they are shared with a length bound (O(1)).
    policy = machine.policy
    entry.policy = (policy.choices, len(policy.choices),
                    policy.candidates, len(policy.candidates),
                    policy.divergences, len(policy.divergences))
    entry.recorder = None
    if recorder is not None:
        # The per-step lists are append-only with immutable entries for
        # the node's lifetime (the next pooled node *replaces* them), so
        # they are shared by reference with a length bound — same
        # zero-copy discipline as the step journal.
        cpu_reads = recorder._cpu_reads
        cpu_writes = recorder._cpu_writes
        entry.recorder = (
            recorder.footprints, recorder.deliveries,
            len(recorder.footprints),
            [set(cpu_reads[cpu_id]) for cpu_id in bound],
            [set(cpu_writes[cpu_id]) for cpu_id in bound])
    # Committed/aborted records are immutable once appended (the
    # recorder only mutates *live* frames, and a record leaves the frame
    # stacks exactly when it enters one of those lists), so the lists
    # are shared by reference; only the live frames are copied.
    history = history_recorder.history
    frames = history_recorder._frames
    entry.history = (history.committed, len(history.committed),
                     history.aborted, len(history.aborted),
                     [copy_value(frames[cpu_id]) for cpu_id in bound],
                     history_recorder._seq)
    books = profiler._cpu
    entry.profiler = [save(books[cpu_id]) for cpu_id in bound]
    return entry


def _capture_hook(machine, lo, hi, recorder, history_recorder, profiler,
                  captured):
    """The ``branch_hook`` capturing this node's checkpoints at branch
    steps in ``[lo, hi)`` into ``captured`` (step -> entry).  Past
    ``hi`` no capture can follow, so the first branch step there
    retires the hook and the step journal only captures read.
    """

    def hook(step):
        if step < lo:
            return
        if hi is not None and step >= hi:
            machine.policy.branch_hook = None
            machine.disable_journal()
            return
        captured[step] = _capture(machine, recorder, history_recorder,
                                  profiler)

    return hook


def _stack_capture_hook(machine, steps, recorder, history_recorder,
                        profiler, captured):
    """The ``fork_hook`` of a DPOR node: capture at each step boundary
    in ``steps`` into ``captured`` (step -> entry).  After the last one
    it retires itself and the step journal."""
    last = max(steps)

    def hook(step):
        captured[step] = _capture(machine, recorder, history_recorder,
                                  profiler)
        if step == last:
            machine.policy.fork_steps = _EMPTY
            machine.disable_journal()

    return hook


# ----------------------------------------------------------------------
# Running one node
# ----------------------------------------------------------------------


def deviations_to_str(deviations):
    """``((3, 1), (7, 0))`` -> ``"3@1,7@0"``; empty -> ``"det"``."""
    return ",".join(f"{step}@{cpu}" for step, cpu in deviations) or "det"


def parse_deviations(text):
    """Inverse of :func:`deviations_to_str` (used by ``--replay``)."""
    text = (text or "").strip()
    if not text or text == "det":
        return ()
    out = []
    for part in text.split(","):
        step, sep, cpu = part.partition("@")
        if not sep:
            raise ValueError(
                f"bad deviation {part!r}: expected step@cpu")
        out.append((int(step), int(cpu)))
    return tuple(sorted(out))


@dataclasses.dataclass
class ScheduleVerdict:
    """The oracles' verdict on one completely executed schedule."""

    program: str
    config: str
    fault: str
    seed: int
    #: (step, cpu) pairs where the schedule departs from the
    #: deterministic pick — the replayable counterexample encoding.
    deviations: tuple = ()
    violations: list = dataclasses.field(default_factory=list)
    error: str = None
    n_committed: int = 0
    n_steps: int = 0
    #: The committed history's fingerprint (History.signature()).
    signature: tuple = ()
    #: Forced choices that were unavailable on replay (normally empty).
    divergences: tuple = ()
    #: Last-K trace ring of a *failing* schedule (empty on a pass).
    trace: tuple = ()
    #: The program's frozen final observation (None on an errored run);
    #: an exhaustive drain's outcome set is gated against the spec's
    #: admissible set (:func:`repro.spec.outcomes.spec_outcomes`).
    outcome: object = None

    @property
    def failed(self):
        return bool(self.violations)

    @property
    def name(self):
        """The replayable name: ``program:config:deviations``."""
        base = (f"{self.program}:{self.config}:"
                f"{deviations_to_str(self.deviations)}")
        return f"{self.fault}:{base}" if self.fault else base

    def __str__(self):
        if not self.failed:
            return (f"{self.name}: ok ({self.n_committed} commits, "
                    f"{self.n_steps} steps)")
        lines = [f"{self.name}: FAILED ({self.n_committed} commits)"]
        lines += [f"  {violation}" for violation in self.violations]
        if self.trace:
            lines.append(f"  trace tail ({len(self.trace)} events):")
            lines += [f"    {event}" for event in self.trace]
        return "\n".join(lines)


@dataclasses.dataclass
class NodeOutcome:
    """One explored node: its verdict (None if pruned) and children."""

    prefix: tuple
    pruned: bool = False
    verdict: ScheduleVerdict = None
    #: (child_prefix, sleep-set seed) pairs, in enumeration order.
    children: tuple = ()


def _should_prune(prune, fault, config):
    return bool(prune) and fault is None and config.detection == LAZY


def _execute(program_name, config_name, forced, sleep_entries, sleep_from,
             fault, seed, max_cycles, record, checkpoint_ctx=None,
             trace=False):
    """Run one controlled schedule; returns the post-run state tuple
    ``(program, machine, policy, history, error, pruned_at, recorder,
    obs)`` where ``obs`` is the ``(tracer, profiler)`` pair: the
    cycle-conservation books every node carries, and the trace-on-failure
    ring when ``trace`` asks for it (else None; a node's verdict reads a
    trace only when it fails, see :func:`_failure_trace`).
    ``sleep_entries`` is the sleep-set seed (see
    :func:`repro.check.por.sleep_seed`).

    ``checkpoint_ctx`` switches the node to checkpoints, in one of two
    forms.  The generation loop's (``{"base", "prefix", "max_depth",
    "captured"}``) forks at ``prefix``'s branch step when the cache
    holds that checkpoint, and captures this run's own branch steps into
    ``captured`` (see :func:`_capture_hook`) for :func:`run_node` to
    deposit.  The DPOR search's (``{"prefix", "resume", "capture",
    "captured"}``) resumes from ``resume = (step, entry)`` when given,
    forcing the prefix from ``step`` on, and captures at the step
    boundaries in ``capture``; it reports whether the restore happened
    as ``"restored"``.  ``forced`` may be None: it is the prefix's,
    built only for a stateless run.  Verdicts are identical either way
    — checkpoints only change where execution starts.
    """
    if fault is not None and fault not in FAULTS:
        raise ValueError(f"unknown fault {fault!r}; choose from {FAULTS}")
    resume = None
    ctx = None
    if checkpoint_ctx is not None:
        prefix = checkpoint_ctx["prefix"]
        if "resume" in checkpoint_ctx:
            resume = checkpoint_ctx["resume"]
        else:
            entry = _CHECKPOINTS.lookup(checkpoint_ctx["base"], prefix)
            if entry is not None:
                resume = (len(prefix) - 1, entry)
        if forced is None:
            forced = dict(enumerate(prefix))
    if resume is not None:
        # The resumed run makes only the prefix's choices from the
        # resume step on (the earlier ones are preloaded).
        start, entry = resume
        policy = ControlledPolicy(
            forced={step: prefix[step]
                    for step in range(start, len(prefix))},
            sleep=sleep_entries, sleep_from=sleep_from,
            window=EXPLORE_WINDOW)
        try:
            ctx, program = _restore_node(
                program_name, config_name, entry, seed)
        except SnapshotError:
            if "resume" not in checkpoint_ctx:
                _CHECKPOINTS.stats["fallbacks"] += 1
            ctx = None
    if checkpoint_ctx is not None:
        checkpoint_ctx["restored"] = ctx is not None
    if ctx is None:
        policy = ControlledPolicy(
            forced=forced, sleep=sleep_entries, sleep_from=sleep_from,
            window=EXPLORE_WINDOW)
    injector = None
    if ctx is not None:
        # Hit path: the pooled context's observers are already attached;
        # load their state from the checkpoint (checkpointing never runs
        # under a fault plan, so no injector here).
        machine = ctx.machine
        config = machine.config
        recording = record and _should_prune(True, fault, config)
        ctx.resume(entry, policy, sleep_entries, sleep_from, recording,
                   take=entry.uses is not None and entry.uses <= 0)
        recorder = ctx.recorder if recording else None
        history_recorder = ctx.history
        profiler = ctx.profiler
        tracer = None
    else:
        program = make_program(program_name, seed=seed)
        config = build_config(config_name, program)
        machine = Machine(config, policy=policy)
        if checkpoint_ctx is not None:
            machine.enable_journal()
        recorder = None
        if record and _should_prune(True, fault, config):
            recorder = StepRecorder(machine, policy,
                                    sleep_entries=sleep_entries,
                                    sleep_from=sleep_from)
            machine.observe(recorder)
        if fault is not None:
            injector = FaultInjector(make_plan(fault, seed), machine)
        runtime = Runtime(machine)
        arena = SharedArena(machine)
        history_recorder = HistoryRecorder(machine)
        profiler = CycleProfiler(machine)
        tracer = (Tracer(machine, sink=RingSink(TRACE_RING, mode="tail"))
                  if trace else None)
    if checkpoint_ctx is not None and "capture" in checkpoint_ctx:
        if checkpoint_ctx["capture"]:
            policy.fork_steps = checkpoint_ctx["capture"]
            policy.fork_hook = _stack_capture_hook(
                machine, checkpoint_ctx["capture"], recorder,
                history_recorder, profiler, checkpoint_ctx["captured"])
        else:
            machine.disable_journal()
    elif checkpoint_ctx is not None and checkpoint_ctx["max_depth"] != 0:
        # max_depth 0 marks the last bounded generation: no child runs.
        policy.branch_hook = _capture_hook(
            machine, len(checkpoint_ctx["prefix"]),
            checkpoint_ctx["max_depth"], recorder, history_recorder,
            profiler, checkpoint_ctx["captured"])
    error = None
    pruned_at = None
    try:
        if ctx is None:
            program.setup(machine, runtime, arena)
        machine.run(max_cycles=max_cycles or program.max_cycles)
    except SchedulePruned as exc:
        pruned_at = exc.step
    except ReproError as exc:
        error = exc
    finally:
        policy.branch_hook = None
        policy.fork_hook = None
        if ctx is None:
            if tracer is not None:
                tracer.detach()
            profiler.detach()
            history_recorder.detach()
            if injector is not None:
                injector.detach()
            if recorder is not None:
                machine.unobserve(recorder)
    return (program, machine, policy, history_recorder.history, error,
            pruned_at, recorder, (tracer, profiler))


def _trace_deviations(policy):
    return tuple(
        (step, chosen)
        for step, (chosen, cands) in enumerate(
            zip(policy.choices, policy.candidates))
        if cands and chosen != cands[0])


def _failure_trace(program_name, config_name, fault, seed, max_cycles,
                   deviations):
    """The last-K trace ring of the schedule ``deviations`` names, from a
    replay with a tracer attached.  Runs are a pure function of their
    choices, so the replay records exactly the events the explored run
    made; only a failing schedule pays for it."""
    obs = _execute(program_name, config_name, dict(deviations), {}, 0,
                   fault, seed, max_cycles, record=False, trace=True)[-1]
    return tuple(obs[0].events)


def _make_verdict(program_name, config_name, fault, seed, program,
                  machine, policy, history, error, obs=None,
                  max_cycles=None):
    violations, error = collect_violations(
        program, machine, history, error, fault)
    deviations = _trace_deviations(policy)
    trace = ()
    if obs is not None:
        tracer, profiler = obs
        violations += check_cycle_conservation(profiler.account())
        if violations:
            trace = (tuple(tracer.events) if tracer is not None
                     else _failure_trace(program_name, config_name, fault,
                                         seed, max_cycles, deviations))
    outcome = None if error else freeze(program.outcome(machine))
    return ScheduleVerdict(
        program=program_name, config=config_name, fault=fault, seed=seed,
        deviations=deviations,
        violations=violations,
        error=str(error) if error else None,
        n_committed=len(history),
        n_steps=len(policy.choices),
        signature=history.signature(),
        divergences=tuple(policy.divergences),
        trace=trace,
        outcome=outcome)


def run_node(program_name, config_name, prefix=(), sleep=None,
             fault=None, seed=1, max_depth=None, prune=True,
             max_cycles=None, checkpoint=False):
    """Run one exploration node: replay ``prefix``, complete the run
    deterministically, judge it, and derive the child prefixes.

    ``sleep`` is the sleep-set seed for this subtree (a child's, from
    :func:`repro.check.por.make_children`); ``max_depth`` bounds the
    step index at which new branches may be taken.  ``checkpoint``
    enables the in-process snapshot cache where
    :func:`_checkpoint_supported` allows: the node forks from its
    parent's deposit and deposits its own branch steps for its
    children.  The node's verdict and children are identical with it on
    or off.
    """
    prefix = tuple(prefix)
    ctx = None
    if checkpoint and _checkpoint_supported(program_name, config_name,
                                            fault):
        ctx = {
            "base": (program_name, config_name, fault, seed, bool(prune)),
            "prefix": prefix,
            "max_depth": max_depth,
            "captured": {},
        }
    program, machine, policy, history, error, pruned_at, recorder, obs = (
        _execute(program_name, config_name,
                 None if ctx else dict(enumerate(prefix)),
                 sleep or {}, len(prefix), fault, seed, max_cycles,
                 record=prune, checkpoint_ctx=ctx))
    verdict = None
    if pruned_at is None:
        verdict = _make_verdict(program_name, config_name, fault, seed,
                                program, machine, policy, history, error,
                                obs=obs, max_cycles=max_cycles)
    children = make_children(prefix, policy, recorder, max_depth,
                             machine.config.n_cpus)
    if ctx is not None:
        # Hand each capture to the children its step produced (a run
        # that died mid-step produced none at its last step).
        uses = {}
        for child, _ in children:
            step = len(child) - 1
            uses[step] = uses.get(step, 0) + 1
        for step, entry in ctx["captured"].items():
            if step in uses:
                # The last use takes the copies over (no copy on load).
                entry.uses = entry.snapshot.uses = uses[step]
                _CHECKPOINTS.deposit(
                    (ctx["base"], tuple(policy.choices[:step])), entry)
    return NodeOutcome(prefix=prefix, pruned=pruned_at is not None,
                       verdict=verdict, children=tuple(children))


def replay(program_name, config_name, deviations, fault=None, seed=1,
           max_cycles=None):
    """Re-run the schedule identified by ``deviations`` and return its
    :class:`ScheduleVerdict`.

    Forcing exactly the deviating steps (every other step takes the
    deterministic pick) reconstructs the original schedule bit-for-bit,
    so a counterexample replays from its name alone.
    """
    deviations = tuple(sorted(tuple(d) for d in deviations))
    program, machine, policy, history, error, _pruned, _rec, obs = (
        _execute(program_name, config_name, dict(deviations), {}, 0,
                 fault, seed, max_cycles, record=False, trace=True))
    return _make_verdict(program_name, config_name, fault, seed,
                         program, machine, policy, history, error,
                         obs=obs)


# ----------------------------------------------------------------------
# Source-set DPOR: the unbounded pruned search
# ----------------------------------------------------------------------


def _run_dpor_node(program_name, config_name, prefix, sleep_entries,
                   seed, max_cycles, checkpoint_ctx):
    """Run one DPOR node; returns ``(verdict, policy, recorder)`` with
    ``verdict`` None when the sleep set pruned the run."""
    program, machine, policy, history, error, pruned_at, recorder, obs = (
        _execute(program_name, config_name,
                 None if checkpoint_ctx else dict(enumerate(prefix)),
                 sleep_entries, len(prefix), None, seed, max_cycles,
                 record=True, checkpoint_ctx=checkpoint_ctx))
    verdict = None
    if pruned_at is None:
        verdict = _make_verdict(program_name, config_name, None, seed,
                                program, machine, policy, history, error,
                                obs=obs, max_cycles=max_cycles)
    return verdict, policy, recorder


class _DporStack:
    """The DFS stack of :func:`_explore_dpor`: one state per step of the
    current path (the latest run's trace), as parallel lists.

    Per state: the step the current path took there (choice, window,
    footprint, deliveries, vector clock), the sleep entries in effect,
    the CPUs explored there with their exact footprints (``done``), the
    ``backtrack`` set races put there, the generation of the run that
    recorded it, and the checkpoint captured at its boundary (or None).
    """

    __slots__ = ("choices", "candidates", "footprints", "deliveries",
                 "sleep", "done", "backtrack", "generation", "snapshot",
                 "clocks")

    def __init__(self):
        for name in self.__slots__:
            setattr(self, name, [])

    def __len__(self):
        return len(self.choices)

    def truncate(self, height):
        for name in self.__slots__:
            del getattr(self, name)[height:]

    def push(self, choice, candidates, fp, delivered, sleep, generation):
        self.choices.append(choice)
        self.candidates.append(candidates)
        self.footprints.append(fp)
        self.deliveries.append(delivered)
        self.sleep.append(sleep)
        self.done.append({choice: fp})
        self.backtrack.append({choice})
        self.generation.append(generation)
        self.snapshot.append(None)

    def todo(self, k):
        """The CPU to explore next at state ``k`` (window order), or
        None: in ``backtrack``, not yet explored, not asleep."""
        backtrack = self.backtrack[k]
        done = self.done[k]
        if len(backtrack) == len(done):
            return None
        asleep = self.sleep[k]
        for cpu in self.candidates[k]:
            if cpu in backtrack and cpu not in done and cpu not in asleep:
                return cpu
        return None


def _explore_dpor(out, program_name, config_name, seed, n_cpus, max_depth,
                  max_schedules, max_cycles, timeout, report, checkpoint):
    """Drain the unbounded pruned schedule space of one (program,
    config) by source-set DPOR, filling ``out``.

    Depth-first: run a schedule, push its new states, add the backtrack
    points its races call for (:func:`repro.check.por.add_backtracks`),
    then fork the deepest state with a CPU left to explore.  The child
    replays the path up to that state, forces the CPU, seeds its sleep
    set by Godefroid's rule from the state's sleep entries and explored
    siblings, and continues with the default pick.

    With ``checkpoint``, snapshots live on the stack: a child resumes
    from the nearest one at or before its fork, forcing the gap, and
    captures on its way only at the boundaries a later child is known
    to fork from (the states below its fork with a CPU left to
    explore).  Popping a state releases its snapshot.
    """
    stack = _DporStack()
    stats = out.checkpoint_stats
    race_stats = RaceStats()
    fork = None
    prefix = ()
    sleep_entries = {}
    generation = 0
    while True:
        if (max_schedules is not None
                and out.explored + out.pruned >= max_schedules):
            out.truncated = True
            break
        ctx = None
        if checkpoint:
            resume = None
            start = 0
            if fork is not None:
                for k in range(fork, -1, -1):
                    if stack.snapshot[k] is not None:
                        resume = (k, stack.snapshot[k])
                        start = k
                        break
            capture = frozenset(
                k for k in range(start + (resume is not None),
                                 0 if fork is None else fork)
                if stack.snapshot[k] is None and stack.todo(k) is not None)
            ctx = {"prefix": prefix, "resume": resume, "capture": capture,
                   "captured": {}}
        result = call_guarded(
            _run_dpor_node,
            (program_name, config_name, prefix, sleep_entries, seed,
             max_cycles, ctx), {}, timeout,
            partial(_failure_verdict, program_name, config_name, None,
                    seed, prefix))
        if isinstance(result, ScheduleVerdict):
            verdict, recorder = result, None
        else:
            verdict, policy, recorder = result
        if verdict is None:
            out.pruned += 1
        else:
            out.explored += 1
            out.verdicts.append(verdict)
            if report is not None:
                report(verdict)
        while len(out.generations) <= generation:
            out.generations.append(0)
        out.generations[generation] += 1
        if ctx is not None and "restored" in ctx:
            # (A run that crashed before its restore counts nowhere.)
            restored = ctx["restored"]
            stats["hits"] += restored
            stats["misses"] += not restored
            stats["fallbacks"] += (ctx["resume"] is not None
                                   and not restored)

        # Push the run's new states and analyse its new steps' races.
        lo = 0 if fork is None else fork
        stack.truncate(0 if fork is None else fork + 1)
        n = 0 if recorder is None else len(recorder.footprints)
        if n > lo:
            footprints = recorder.footprints
            if fork is not None:
                stack.choices[fork] = policy.choices[fork]
                stack.footprints[fork] = footprints[fork]
                stack.deliveries[fork] = recorder.deliveries[fork]
                stack.done[fork][policy.choices[fork]] = footprints[fork]
            for k in range(len(stack), n):
                stack.push(policy.choices[k], policy.candidates[k],
                           footprints[k], recorder.deliveries[k],
                           recorder.sleep_before[k], generation)
            if ctx is not None:
                stats["deposits"] += len(ctx["captured"])
                for k, entry in ctx["captured"].items():
                    stack.snapshot[k] = entry
            stack.clocks, races = vector_clocks(
                stack.choices, stack.footprints, stack.deliveries, n_cpus,
                lo, stack.clocks[:lo])
            add_backtracks(stack.choices, stack.candidates, stack.clocks,
                           races, stack.backtrack, stack.sleep, race_stats,
                           hi=max_depth)
        if stats is not None:
            stats["peak_live"] = max(
                stats["peak_live"],
                sum(entry is not None for entry in stack.snapshot))

        # Fork the deepest state with a CPU left to explore.
        top = len(stack) if max_depth is None else min(len(stack),
                                                      max_depth)
        for k in range(top - 1, -1, -1):
            alt = stack.todo(k)
            if alt is not None:
                break
        else:
            break
        fork = k
        alt_fp = pending_footprints(stack.choices, stack.footprints,
                                    stack.deliveries, (alt,), k)[0][alt]
        sleep_entries = sleep_seed(
            list(stack.sleep[k].items())
            + [(cpu, (fp, k)) for cpu, fp in stack.done[k].items()],
            alt, alt_fp or GLOBAL_FOOTPRINT)
        stack.done[k][alt] = None
        prefix = tuple(stack.choices[:k]) + (alt,)
        generation = stack.generation[k] + 1
    out.races = race_stats.races
    out.backtracks = race_stats.insertions
    out.window_fallbacks = race_stats.fallbacks


# ----------------------------------------------------------------------
# The frontier driver
# ----------------------------------------------------------------------


def _failure_verdict(program_name, config_name, fault, seed, prefix,
                     message):
    """The run-failure verdict of a node (``prefix``) or, with ``prefix``
    None, of a whole search that crashed or hung with ``message``."""
    where = (f"search {program_name}:{config_name}" if prefix is None
             else f"node prefix={list(prefix)}")
    return ScheduleVerdict(
        program=program_name, config=config_name, fault=fault, seed=seed,
        deviations=(),
        violations=[OracleViolation("run-failure", f"{where}: {message}")],
        error=message)


@dataclasses.dataclass
class ExploreReport:
    """The outcome of one exploration campaign."""

    program: str
    config: str
    fault: str = None
    seed: int = 1
    preemption_bound: int = None
    max_depth: int = None
    prune: bool = True
    skipped: bool = False
    #: Why the whole search failed (its worker crashed or hung), else
    #: None; such a report holds just the search's run-failure verdict.
    error: str = None
    #: Schedules run to completion and judged.
    explored: int = 0
    #: Runs abandoned by the sleep set (continuation covered elsewhere).
    pruned: int = 0
    #: Nodes per generation (generation = number of forced deviations).
    generations: list = dataclasses.field(default_factory=list)
    #: One verdict per explored schedule, in enumeration order.
    verdicts: list = dataclasses.field(default_factory=list)
    #: True if ``max_schedules`` cut the frontier before it drained.
    truncated: bool = False
    #: Whether the snapshot cache was requested for this campaign.
    checkpoint: bool = False
    #: Checkpoint counters (hits/misses/deposits/fallbacks over the
    #: search; ``peak_live`` is the most entries held at once).  None
    #: when checkpointing was off.
    checkpoint_stats: dict = None
    #: DPOR counters (unbounded pruned drains only): races analysed,
    #: CPUs inserted into backtrack sets, and races with no in-window
    #: initial, where every in-window candidate was added.
    races: int = 0
    backtracks: int = 0
    window_fallbacks: int = 0

    @property
    def dpor(self):
        """Whether the drain ran source-set DPOR (unbounded, pruned)."""
        return self.preemption_bound is None and self.prune and not (
            self.skipped or self.error)

    @property
    def failures(self):
        return [v for v in self.verdicts if v.failed]

    @property
    def exhaustive(self):
        """Every reachable schedule (up to pruning) was visited."""
        return not self.truncated and self.preemption_bound is None

    @property
    def distinct_histories(self):
        return len({v.signature for v in self.verdicts})

    def summary(self):
        name = f"{self.program}:{self.config}"
        if self.fault:
            name = f"{self.fault}:{name}"
        if self.skipped:
            return f"{name}: skipped (scenario needs another config)"
        if self.error:
            return f"{name}: search failed ({self.error})"
        bound = ("unbounded" if self.preemption_bound is None
                 else f"bound {self.preemption_bound}")
        scope = "exhaustive" if self.exhaustive else bound
        tail = " [truncated]" if self.truncated else ""
        return (f"{name}: {self.explored} schedules explored, "
                f"{self.pruned} pruned ({scope}, "
                f"{self.distinct_histories} distinct histories, "
                f"{len(self.failures)} failing){tail}")


def search_spec(program_name, config_name, **kwargs):
    """The :class:`CaseSpec` of one whole search,
    ``explore(program_name, config_name, **kwargs)``: the unit
    ``explore --jobs`` shards across workers."""
    return CaseSpec(runner="repro.check.explore:explore",
                    name=f"{program_name}:{config_name}",
                    args=(program_name, config_name),
                    kwargs=tuple(kwargs.items()))


def failed_search(spec, message):
    """The report of a :func:`search_spec` whose run crashed or hung as
    a whole: its one verdict is a run-failure naming the pair."""
    program_name, config_name = spec.args
    kwargs = dict(spec.kwargs)
    out = ExploreReport(
        program=program_name, config=config_name,
        fault=kwargs.get("fault"), seed=kwargs.get("seed", 1),
        preemption_bound=kwargs.get("preemption_bound", 2),
        max_depth=kwargs.get("max_depth"), error=message)
    out.verdicts.append(_failure_verdict(
        program_name, config_name, out.fault, out.seed, None, message))
    return out


def explore(program_name, config_name, fault=None, seed=1,
            preemption_bound=2, max_depth=None, prune=True,
            max_schedules=None, max_cycles=None, timeout=None,
            report=None, checkpoint=True):
    """Explore one (program, config[, fault]) schedule space serially.

    The search runs in this process; ``explore --jobs`` shards whole
    searches (:func:`search_spec`).

    With a ``preemption_bound``, or without pruning: breadth-first over
    generations, where generation ``b`` holds the schedules with ``b``
    forced deviations — iterative preemption bounding.  Unbounded
    (``preemption_bound=None``) and pruned: a source-set DPOR drain
    (:func:`_explore_dpor`).  ``report``, if given, sees every
    :class:`ScheduleVerdict` in enumeration order.  ``timeout`` is the
    per-node budget in seconds: a node over it, or one that raises,
    becomes a run-failure verdict and the search goes on.
    ``max_schedules`` caps the total number of runs as a safety net and
    marks the report ``truncated``.

    ``checkpoint`` (default on; gated per node by
    :func:`_checkpoint_supported`) lets a run resume from a snapshot
    instead of replaying from cycle 0: each child of the generations
    forks from the snapshot its parent captured at the branch step, and
    a DPOR child from the nearest snapshot on the DFS stack.  Every
    verdict is identical with it on or off — ``--no-checkpoint`` is the
    differential control.  The in-process cache is empty again when
    this returns.
    """
    if config_name not in CONFIGS:
        raise ValueError(f"unknown config {config_name!r}; "
                         f"choose from {sorted(CONFIGS)}")
    if fault is not None and fault not in FAULTS:
        raise ValueError(f"unknown fault {fault!r}; choose from {FAULTS}")
    program = make_program(program_name, seed=seed)
    config = build_config(config_name, program)
    effective_prune = _should_prune(prune, fault, config)
    effective_checkpoint = bool(
        checkpoint and _checkpoint_supported(program_name, config_name,
                                             fault))
    out = ExploreReport(
        program=program_name, config=config_name, fault=fault, seed=seed,
        preemption_bound=preemption_bound, max_depth=max_depth,
        prune=effective_prune, checkpoint=effective_checkpoint)
    if not program.supports(config):
        out.skipped = True
        return out
    if effective_checkpoint:
        out.checkpoint_stats = {"hits": 0, "misses": 0, "deposits": 0,
                                "fallbacks": 0, "peak_live": 0}

    if out.dpor:
        _explore_dpor(out, program_name, config_name, seed, config.n_cpus,
                      max_depth, max_schedules, max_cycles, timeout, report,
                      effective_checkpoint)
        return out

    cache = _CHECKPOINTS
    before = dict(cache.stats)
    frontier = [((), None)]
    generation = 0
    try:
        while frontier:
            if preemption_bound is not None and generation > preemption_bound:
                break
            if max_schedules is not None:
                room = max_schedules - (out.explored + out.pruned)
                if room <= 0:
                    out.truncated = True
                    break
                if len(frontier) > room:
                    frontier = frontier[:room]
                    out.truncated = True
            # The last bounded generation's children can never run:
            # suppress them at the source (a livelocked run has tens of
            # thousands of steps, and materializing one child prefix per
            # step is quadratic in memory for no benefit).
            last = (preemption_bound is not None
                    and generation == preemption_bound)
            common = {"fault": fault, "seed": seed,
                      "max_depth": 0 if last else max_depth,
                      "prune": effective_prune, "max_cycles": max_cycles,
                      "checkpoint": effective_checkpoint}
            next_frontier = []
            for prefix, sleep in frontier:
                outcome = call_guarded(
                    run_node, (program_name, config_name),
                    {"prefix": prefix, "sleep": sleep, **common}, timeout,
                    partial(_failure_verdict, program_name, config_name,
                            fault, seed, prefix))
                if isinstance(outcome, ScheduleVerdict):
                    outcome = NodeOutcome(prefix=prefix, verdict=outcome)
                if outcome.pruned:
                    out.pruned += 1
                else:
                    out.explored += 1
                    out.verdicts.append(outcome.verdict)
                    if report is not None:
                        report(outcome.verdict)
                next_frontier.extend(outcome.children)
                if effective_checkpoint:
                    stats = out.checkpoint_stats
                    stats["peak_live"] = max(stats["peak_live"], len(cache))
            out.generations.append(len(frontier))
            frontier = next_frontier
            generation += 1
    finally:
        if effective_checkpoint:
            for key, value in before.items():
                out.checkpoint_stats[key] = cache.stats[key] - value
        cache.clear()
    return out
