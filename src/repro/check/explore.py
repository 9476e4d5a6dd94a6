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

**Enumeration.**  Every search runs depth-first on one stack
(:func:`_explore`): run a schedule, push the states of its trace, then
fork the deepest state with a CPU left to explore.  The root is the
empty prefix — the deterministic schedule.  A child replays its
parent's path up to the fork, forces the new CPU there and completes
with the default pick.  Only the *enumeration rule* differs between
searches, and :attr:`ExploreReport.dpor` chooses it:

* A *bounded* search (finite ``preemption_bound``), or an unpruned one,
  branches on every in-window alternative at every step of a run with
  fewer than ``preemption_bound`` deviations, below ``max_depth``.
  Every child deviates from its parent's continuation at exactly one
  new point, so a run's generation — its depth in the tree — is its
  number of forced deviations, and ``bound = 0`` is precisely the
  fuzzer's ``det`` schedule.  This is preemption bounding in the
  delay-bounding style of CHESS (Musuvathi & Qadeer).  Each complete
  schedule is visited exactly once (two distinct prefixes always
  complete to distinct choice sequences).
* An *unbounded pruned* drain runs source-set DPOR (Abdulla, Aronis,
  Jonsson, Sagonas, POPL 2014; :mod:`repro.check.por`).  It branches
  only where two dependent steps of a run race: at the state before
  the earlier step it adds a CPU whose first step reverses the race.
  Branching on every alternative completes each interleaving class
  several times over (1 176 judged runs for the 175 classes of the
  seed-1 ``litmus-sb`` drain at depth 48); DPOR judges 228 runs there
  and abandons none.  DPOR and preemption bounds do not compose
  naively (Coons, Musuvathi, McKinley, OOPSLA 2013), so a bounded
  search keeps the first rule.

The tree is the breadth-first generation loop's
(``tests/reference.py::explore_generations``), and so is every verdict
and count; only the visiting order differs.  A search capped by
``max_schedules`` therefore judges the first runs of a depth-first
order: not every schedule with ``b`` deviations before any with
``b + 1``.  Shallow-first coverage comes from the bound itself.

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

**Checkpoints.**  A run resumes from a mid-run snapshot instead of
replaying its prefix from cycle 0 wherever :func:`_checkpoint_supported`
allows.  A checkpoint is a plain
:class:`~repro.sim.snapshot.MachineSnapshot` that carries the node's
observers and policy recordings as its books.  Each search owns its
snapshots on its DFS stack, one per state at most, and restores them
onto one :class:`_NodeContext` the search builds, so nothing outlives
the search (see the comment block above :class:`_NodeContext`).  Every
node runs through one step, :meth:`_Search.node`, which runs, judges
and counts it and returns what it captured.

**Counterexamples.**  A failing schedule is reported as its *deviation
list* — the ``(step, cpu)`` pairs where it departs from the
deterministic pick — which replays exactly (:func:`replay`, CLI
``python -m repro explore --replay prog:config:3@1,7@0 --seed 1``).
It is the one counterexample form: the fuzzer's randomized runs record
theirs as they go, and every failure of ``check``, ``chaos`` and
``explore`` shrinks through the same ddmin loop
(:func:`repro.check.fuzz.shrink`) and prints the same replay line.

**Parallelism.**  :func:`explore` runs one (program, config) search
serially, in-process.  The unit that ``explore --jobs N`` shards is a
whole search: one :class:`~repro.harness.parallel.CaseSpec` per pair
through :func:`~repro.harness.parallel.run_campaign`, whose reports come
back in enumeration order, so the output is the serial run's whatever
``N`` is (``conform`` shards its drains the same way).  Sharding one
search node by node lost to serial: a node costs less than its
pickling.  A worker that crashes or hangs on a pair becomes that
pair's report (:func:`failed_search`).

The explorer uses the fuzzer's candidate window
(:data:`~repro.sim.schedule.DEFAULT_WINDOW`): the explored space is
exactly the interleavings the randomized policies can reach, and the
finite window doubles as the termination guarantee under sleep sets —
a CPU spinning on units independent of every sleep entry advances its
local time until the sleeper is the only in-window candidate, at which
point the run prunes instead of starving it forever.  The deterministic
pick does not depend on the window, so bound 0 is the fuzzer's ``det``
schedule.
"""

from __future__ import annotations

import dataclasses
import sys
from functools import partial
from itertools import islice

from repro.common.params import LAZY
from repro.htm.conflict import PROCEED
from repro.harness.parallel import CaseSpec, call_guarded
from repro.sim.engine import Machine
from repro.sim.schedule import (
    ControlledPolicy,
    ReplayPolicy,
    SchedulePruned,
)
from repro.sim.snapshot import SnapshotError

from repro.obs.observer import Observer
from repro.obs.profiler import CycleProfiler

from repro.check.fuzz import (
    CONFIGS,
    FAULTS,
    FailureTrace,
    build_config,
    collect_violations,
    faulted,
)
from repro.check.history import HistoryRecorder
from repro.check.oracles import OracleViolation
from repro.check.por import (
    EMPTY_FOOTPRINT,
    GLOBAL_FOOTPRINT,
    TOKEN,
    RaceStats,
    add_backtracks,
    footprint as _footprint,
    pending_footprints,
    sleep_seed,
    vector_clocks,
)
from repro.check.programs import make_program
from repro.spec.replay import freeze
from repro.workloads.base import Run, caught


_EMPTY = frozenset()


class StepRecorder(Observer):
    """Per-step footprint/delivery recorder and live sleep-set updater.

    An :class:`~repro.obs.observer.Observer` of the HTM's access, token,
    commit, undo and serial-mode events plus the machine's ``wake`` and
    ``queued`` events; each ``step`` event closes one footprint.  While
    running, any step dependent on a sleep entry — or delivering to it —
    wakes that entry (``policy.sleep``), keeping the pruning sound.
    A search's restore target keeps one recorder and subscribes it only
    while pruning nodes run.
    """

    #: Snapshot state (repro.sim.snapshot), as a book of the machine.
    #: The policy, the sleep entries and ``sleep_before`` are each
    #: node's own, installed by :meth:`_NodeContext.resume`.
    _state = ("footprints", "deliveries", "_acc_reads", "_acc_writes",
              "_acc_delivered", "_acc_global", "_cpu_reads", "_cpu_writes")

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
        machine.observe(self)

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
# Checkpointed exploration: fork-point checkpoints on the DFS stack
# ----------------------------------------------------------------------
#
# A node run is a pure function of its choice prefix, and every child
# shares all but its last choice with its parent — so the stateless
# "replay from cycle 0" discipline re-executes the same prefix over and
# over.  Instead, a run captures mid-run machine snapshots
# (:mod:`repro.sim.snapshot`) at the step boundaries its search will
# fork children from, and a child restores one and runs on from there.
# A checkpoint is just such a snapshot, carrying the node's *books*, in
# the one order capture and restore share: its policy's recordings, the
# history, the cycle books and, on a pruning node, the step records.
# The search keeps its snapshots on its DFS stack (:class:`_Stack`), one
# per state at most, and a child resumes from the nearest one at or
# before its fork, forcing the gap.  Which states a run captures at is
# the enumeration rule's:
#
# * **Bounded or unpruned.**  A node with prefix ``P`` captures at the
#   states it will branch at, in ``[len(P), max_depth)`` — where
#   :class:`ControlledPolicy` calls its ``fork_hook``, at a step with an
#   in-window alternative that is not asleep.  Such a state knows its
#   children when it is pushed, so its snapshot is deposited with one
#   use per child: the children fork at it one after another, and the
#   last takes the copies over and frees the slot.
# * **DPOR.**  Races add a state's children only after later runs, so a
#   run captures at the states below its fork that have a CPU left to
#   explore and no snapshot yet; such a snapshot serves every later
#   child until its state is popped.
#
# Either way a checkpoint lives as long as its state is on the stack: a
# stack cut by ``max_schedules``, or the subtree of a crashed node,
# drops its entries with it.  Restores go onto one :class:`_NodeContext`
# the search builds and drops.
#
# Soundness rests on three facts:
#
# * **Machine state is a function of the choices alone.**  Two runs that
#   made the same choice sequence stepped the same CPUs through the same
#   ops, whatever sleep sets or forced maps *led* to those choices — so
#   a checkpoint captured by any node serves any other node whose
#   prefix extends the checkpoint's choices.  The recorded candidate
#   lists, footprints, deliveries, histories and cycle books are equally
#   choice-determined, so the books restore from the same snapshot.
# * **The fork point is the branch step, never past it.**  A child's
#   *new* sleep entries activate at the branch step ``len(prefix) - 1``
#   (see :func:`_explore`), and the recorder's
#   removal rule may fire at exactly that step — so restoring past it
#   could skip a wake-up and prune a schedule the stateless run
#   explores.  Forking at
#   ``s = len(prefix) - 1`` runs the branch step itself live, keeping
#   every sleep-set decision of this node inside the resumed portion.
#   Inherited entries survive all earlier steps by construction: the
#   parent executed the identical steps with the entry live and did not
#   remove it, and the removal rule is deterministic in (footprint,
#   deliveries, entry).  A DPOR child that forces a gap after its entry
#   is exact for the same reason: its inherited entries survived the
#   gap in the run that recorded the state.
# * **The policy is not in the machine.**  Each child runs its own
#   :class:`ControlledPolicy` — sleep set, ``sleep_from``, and a forced
#   map holding only the prefix choices the resumed run still makes —
#   and the snapshot carries only the policy's recorded
#   ``choices``/``candidates``/``divergences`` (identical to what a
#   faithful replay of the prefix would have recorded) as a book, which
#   the restore loads into the child's policy.
#
# A node pays only for what its outcome reads:
#
# * **Hand-off on last use.**  Every capture is a copy; a bounded
#   search deposits one with ``uses`` set to its state's child count,
#   and the child that uses it up takes the copies over (machine
#   containers and books alike) instead of copying them again.
# * **Bound CPUs only.**  The snapshot and the profiler's books cover
#   the CPUs a program is bound to; the others never leave their
#   just-built state (tests/test_explore_checkpoint.py pins that after a
#   drain).
# * **Books loaded once.**  A restore re-runs setup and ghost replay
#   with the context's observers attached, but no event fires until the
#   engine steps, so the restore loads every book once, after the
#   machine.
# * **No trace ring on the node.**  Only a printed failure reads the
#   trace tail; :class:`~repro.check.fuzz.FailureTrace` rebuilds it then
#   by replaying that one schedule with a tracer attached.
#
# Checkpointing is verified differentially: ``--no-checkpoint`` keeps
# the stateless path, and the conformance gate asserts
# verdict-for-verdict equality between the two modes
# (tests/test_explore_checkpoint.py).  Any :class:`SnapshotError` falls
# back to the stateless path for that node (counted in ``fallbacks``) —
# checkpointing is an accelerator, never a semantic dependency.


class _NodeContext:
    """One search's reusable restore target: a machine with the history
    recorder and profiler permanently attached, plus a
    :class:`StepRecorder` subscribed only while pruning nodes run.  It
    stays subscribed from one pruning node to the next: re-subscribing
    rebuilds a tuple per recorded event, which costs more per node than
    the idle subscription (no event fires while a checkpoint restores).

    Constructing the observers costs more than a short resumed run, so
    a search's restored nodes share one context and load its books from
    the checkpoint instead of rebuilding them.  Only the restore path
    may use a context: a restore leaves the data plane to
    :func:`repro.sim.snapshot.restore`'s final load, so a stateless run
    always builds fresh.
    """

    __slots__ = ("machine", "recorder", "history", "profiler")

    def __init__(self, config):
        placeholder = ControlledPolicy()
        self.machine = Machine(config, policy=placeholder)
        self.history = HistoryRecorder(self.machine)
        self.profiler = CycleProfiler(self.machine)
        self.recorder = StepRecorder(self.machine, placeholder)

    def resume(self, snapshot, setup_fn, policy, sleep_entries, sleep_from,
               record):
        """Restore ``snapshot`` onto this context's machine (re-running
        ``setup_fn``) with the node's ``policy`` and this context's
        observers as its books, then install the node's policy and sleep
        set; returns the program and the books.  A restore that raises
        :class:`SnapshotError` consumes no use and touches no book."""
        machine = self.machine
        recorder = self.recorder
        books = (policy, self.history, self.profiler) + (
            (recorder,) if record else ())
        program = machine.restore(snapshot, setup_fn, books)
        machine.policy = policy
        if record:
            # ``sleep_before`` is one shared view of the node's initial
            # entries per recorded step — exact, because no entry of
            # *this* node can be removed before the branch step (the
            # fork-point constraint above).
            recorder.policy = policy
            recorder.sleep_from = sleep_from
            recorder._sleep = sleep_entries
            recorder.sleep_before = [sleep_entries] * len(recorder.footprints)
            machine.observe(recorder)
        else:
            machine.unobserve(recorder)
        return program, books


def _checkpoint_supported(program_name, config_name, fault):
    """Where checkpointing is enabled.  Fault runs are excluded for
    correctness — the injector holds plan state outside the snapshot.
    The litmus/lazy gate is conservatism: those runs' verdicts read
    only machine state (memory, results, history), never program-object
    side state, and lazy detection is where exploration volume lives."""
    return (fault is None
            and program_name.startswith("litmus-")
            and CONFIGS.get(config_name, {}).get("detection", LAZY) == LAZY)


def _capture(machine, books):
    """One checkpoint: a snapshot of ``machine`` and its ``books`` at
    the current step boundary, where every book is quiescent."""
    return machine.snapshot(books)


class _Capture:
    """The fork-point capture hook and the step journal it reads, as an
    instrument: while attached, ``policy`` calls it at the steps of
    ``steps`` (ascending) a child can fork from, and it captures a
    checkpoint of the machine and ``books`` into ``captured`` (step ->
    snapshot).  At the last step, or at once with no steps, it retires
    itself and the journal."""

    def __init__(self, policy, steps, books, captured, machine):
        self.machine = machine
        self.policy = policy
        self.books = books
        self.captured = captured
        self.last = steps[-1] if steps else None
        if steps:
            machine.enable_journal()
            policy.fork_steps = steps
            policy.fork_hook = self
        else:
            machine.disable_journal()

    def __call__(self, step):
        self.captured[step] = _capture(self.machine, tuple(self.books))
        if step == self.last:
            self.policy.fork_steps = _EMPTY
            self.machine.disable_journal()

    def detach(self):
        self.policy.fork_hook = None
        self.machine.disable_journal()


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
class ScheduleVerdict(FailureTrace):
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
    #: The program's frozen final observation (None on an errored run);
    #: an exhaustive drain's outcome set is gated against the spec's
    #: admissible set (:func:`repro.spec.outcomes.spec_outcomes`).
    outcome: object = None
    #: The cycle budget the schedule ran under (None: the program's).
    max_cycles: int = None

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
        return self._failure_lines(
            f"{self.name}: FAILED ({self.n_committed} commits)")


def _should_prune(prune, fault, config):
    return bool(prune) and fault is None and config.detection == LAZY


def _fresh(program_name, config_name, prefix, sleep, fault, seed, record,
           max_cycles, checkpoint):
    """Run one node (see :func:`run_node`) from cycle 0 through
    :meth:`~repro.workloads.base.Workload.run`; returns ``(program,
    machine, error, books)``."""
    policy = ControlledPolicy(
        forced=dict(enumerate(prefix)), sleep=sleep,
        sleep_from=len(prefix))
    program = make_program(program_name, seed=seed)
    config = build_config(config_name, program)
    # The books fill up as their instruments attach, before any capture.
    books = [policy]

    def book(factory):
        def attach(machine):
            books.append(factory(machine))
            return books[-1]
        return attach

    instruments = [book(HistoryRecorder), book(CycleProfiler)]
    if _should_prune(record, fault, config):
        instruments.append(book(lambda machine: StepRecorder(
            machine, policy, sleep, len(prefix))))
    if checkpoint is not None:
        instruments.append(partial(_Capture, policy, checkpoint["capture"],
                                   books, checkpoint["captured"]))
    machine, _, error = program.run(
        config, max_cycles or program.max_cycles, policy,
        faulted(fault, seed, instruments), judge=Run)
    return program, machine, error, tuple(books)


def _resumed(program_name, prefix, sleep, fault, seed, record, max_cycles,
             checkpoint):
    """Run one node from the checkpoint it resumes from, as
    :func:`_fresh` does from cycle 0; None when there is none or the
    restore raised :class:`SnapshotError`."""
    if checkpoint["resume"] is None:
        return None
    target = checkpoint["target"]
    machine = target.machine
    start, snapshot = checkpoint["resume"]
    # The resumed run makes only the prefix's choices from the resume
    # step on (the earlier ones load with the snapshot).
    policy = ControlledPolicy(
        forced={step: prefix[step] for step in range(start, len(prefix))},
        sleep=sleep, sleep_from=len(prefix))
    recording = _should_prune(record, fault, machine.config)
    try:
        # The restore re-runs the set-up half of a fresh run; programs
        # derive all randomness from ``seed``, so it is deterministic.
        program, books = target.resume(
            snapshot, lambda machine: make_program(
                program_name, seed=seed).prepare(machine),
            policy, sleep, len(prefix), recording)
    except SnapshotError:
        return None
    capture = _Capture(policy, checkpoint["capture"], books,
                       checkpoint["captured"], machine)
    try:
        error = caught(machine.run,
                       max_cycles=max_cycles or program.max_cycles)
    finally:
        capture.detach()
    return program, machine, error, books


def _make_verdict(program_name, config_name, fault, seed, max_cycles,
                  program, machine, error, books):
    """Judge a finished run into its :class:`ScheduleVerdict`."""
    policy, history_recorder, profiler = books[:3]
    history = history_recorder.history
    violations, error = collect_violations(
        program, machine, history, profiler, error, fault)
    outcome = None if error else freeze(program.outcome(machine))
    return ScheduleVerdict(
        program=program_name, config=config_name, fault=fault, seed=seed,
        deviations=policy.deviations,
        violations=violations,
        error=str(error) if error else None,
        n_committed=len(history),
        n_steps=policy.n_steps,
        signature=history.signature(),
        divergences=tuple(policy.divergences),
        outcome=outcome,
        max_cycles=max_cycles)


def run_node(program_name, config_name, prefix, sleep, fault, seed, prune,
             max_cycles, checkpoint):
    """Run one exploration node: replay ``prefix``, complete the run
    deterministically and judge it; returns ``(verdict, policy,
    recorder, steps)`` with ``verdict`` None when the sleep set pruned
    the run, and ``steps`` the run's engine steps, a restored prefix
    included.

    ``sleep`` is the sleep-set seed for this subtree (see
    :func:`repro.check.por.sleep_seed`).  ``checkpoint`` is the node's
    checkpoint context (``{"target", "resume", "capture", "captured"}``,
    see :meth:`_Search.node`; this adds ``"restored"``), or None for a
    stateless run; the verdict is identical either way.
    """
    sleep = sleep or {}
    args = (prefix, sleep, fault, seed, prune, max_cycles, checkpoint)
    node = None
    if checkpoint is not None:
        node = _resumed(program_name, *args)
        checkpoint["restored"] = node is not None
    if node is None:
        node = _fresh(program_name, config_name, *args)
    program, machine, error, books = node
    verdict = None
    if not isinstance(error, SchedulePruned):
        verdict = _make_verdict(program_name, config_name, fault, seed,
                                max_cycles, program, machine, error, books)
    recorder = books[3] if len(books) > 3 else None
    return verdict, books[0], recorder, machine.stats.get("engine.steps")


class _Search:
    """What every node of one search shares: its :class:`ExploreReport`
    (``out``), the ``report`` callback, the restore target (a
    :class:`_NodeContext` when ``out.checkpoint``, else None), the
    per-node ``timeout`` and the :func:`run_node` kwargs."""

    __slots__ = ("out", "report", "target", "timeout", "kwargs")

    def __init__(self, out, config, report=None, timeout=None,
                 max_cycles=None):
        self.out = out
        self.report = report
        self.timeout = timeout
        self.target = None
        if out.checkpoint:
            out.checkpoint_stats = {"hits": 0, "misses": 0, "deposits": 0,
                                    "fallbacks": 0, "peak_live": 0}
            self.target = _NodeContext(config)
        self.kwargs = {"program_name": out.program,
                       "config_name": out.config, "fault": out.fault,
                       "seed": out.seed, "prune": out.prune,
                       "max_cycles": max_cycles}

    def node(self, prefix, sleep, generation, resume=None, capture=()):
        """Run one node of ``generation`` and count it; returns
        ``(policy, recorder, captured)``, with ``policy`` None for a node
        that raised or timed out (its run-failure verdict is counted).

        With a restore target the node resumes from ``resume`` (``(step,
        snapshot)`` or None) and captures at the steps of ``capture``
        into ``captured`` (step -> snapshot; see :func:`run_node`); a
        run that started counts as a hit if it restored, else a miss,
        and a fallback if its restore failed.
        """
        ctx = None
        if self.target is not None:
            ctx = {"target": self.target, "resume": resume,
                   "capture": capture, "captured": {}}
        kwargs = self.kwargs
        result = call_guarded(
            run_node, (), dict(kwargs, prefix=prefix, sleep=sleep,
                               checkpoint=ctx), self.timeout,
            partial(_failure_verdict, kwargs["program_name"],
                    kwargs["config_name"], kwargs["fault"], kwargs["seed"],
                    prefix))
        out = self.out
        if isinstance(result, ScheduleVerdict):
            verdict, policy, recorder = result, None, None
        else:
            verdict, policy, recorder, steps = result
            restored = (resume[1].steps()
                        if ctx is not None and ctx.get("restored") else 0)
            out.restored_steps += restored
            out.live_steps += steps - restored
        if verdict is None:
            out.pruned += 1
        else:
            out.explored += 1
            out.verdicts.append(verdict)
            if self.report is not None:
                self.report(verdict)
        while len(out.generations) <= generation:
            out.generations.append(0)
        out.generations[generation] += 1
        if ctx is None:
            return policy, recorder, {}
        if "restored" in ctx:
            stats = out.checkpoint_stats
            restored = ctx["restored"]
            stats["hits"] += restored
            stats["misses"] += not restored
            stats["fallbacks"] += resume is not None and not restored
        return policy, recorder, ctx["captured"]


def replay(program_name, config_name, deviations, fault=None, seed=1,
           max_cycles=None):
    """Re-run the schedule identified by ``deviations`` and return its
    :class:`ScheduleVerdict`.

    Forcing exactly the deviating steps (every other step takes the
    deterministic pick) reconstructs the original schedule bit-for-bit,
    so a counterexample replays from its name alone.  The replay
    records no step (:class:`~repro.sim.schedule.ReplayPolicy`), so a
    livelock's long schedule is held once, in the caller's list.
    """
    if any(a[0] >= b[0] for a, b in zip(deviations,
                                        islice(deviations, 1, None))):
        deviations = sorted(dict(deviations).items())
    policy = ReplayPolicy(deviations)
    program = make_program(program_name, seed=seed)
    machine, attached, error = program.run(
        build_config(config_name, program),
        max_cycles or program.max_cycles, policy,
        faulted(fault, seed, [HistoryRecorder, CycleProfiler]), judge=Run)
    return _make_verdict(program_name, config_name, fault, seed,
                         max_cycles, program, machine, error,
                         (policy, *attached[-2:]))


# ----------------------------------------------------------------------
# The depth-first search
# ----------------------------------------------------------------------


class _Stack:
    """The DFS stack of :func:`_explore`: one state per step of the
    current path (the latest run's trace), as parallel lists.

    Per state: the step the current path took there (choice, window,
    footprint, deliveries, vector clock), the sleep entries in effect,
    the CPUs explored there with the footprints their later siblings'
    sleep sets see (``done``), the CPUs to branch on (``backtrack``), the
    recording run's pending-footprint estimates (a bounded pruned search
    only), the generation of the run that recorded it, and the
    checkpoint captured at its boundary (or None).
    """

    __slots__ = ("choices", "candidates", "footprints", "deliveries",
                 "sleep", "done", "backtrack", "pending", "generation",
                 "snapshot", "clocks")

    def __init__(self):
        for name in self.__slots__:
            setattr(self, name, [])

    def __len__(self):
        return len(self.choices)

    def truncate(self, height):
        for name in self.__slots__:
            del getattr(self, name)[height:]

    def push(self, choice, candidates, fp, delivered, sleep, generation,
             backtrack, pending=None):
        self.choices.append(choice)
        self.candidates.append(candidates)
        self.footprints.append(fp)
        self.deliveries.append(delivered)
        self.sleep.append(sleep)
        self.done.append({choice: fp})
        self.backtrack.append(backtrack)
        self.pending.append(pending)
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

    def deposit(self, k, entry, counted):
        """Keep ``entry`` as state ``k``'s checkpoint.  ``counted``: give
        it one use per CPU left to explore there, so the child that uses
        it up takes its copies over; else it serves every child."""
        if counted:
            backtrack = self.backtrack[k]
            done = self.done[k]
            asleep = self.sleep[k]
            entry.uses = sum(cpu in backtrack and cpu not in done
                             and cpu not in asleep
                             for cpu in self.candidates[k])
        self.snapshot[k] = entry


def _explore(search, n_cpus, preemption_bound, max_depth, max_schedules):
    """Explore one (program, config) depth-first, filling
    ``search.out``.

    Run a schedule, push its new states, then fork the deepest state
    with a CPU left to explore.  The child replays the path up to that
    state, forces the CPU, seeds its sleep set by Godefroid's rule from
    the state's sleep entries and explored siblings, and continues with
    the default pick.  The enumeration rule (``search.out.dpor``) says
    which CPUs a state branches on and what the sleep sets see:

    * **DPOR** (unbounded, pruned): the race reversals
      :func:`repro.check.por.add_backtracks` adds once a run's races are
      known; an explored sibling enters later sleep sets with its exact
      footprint, a new one with its pending footprint on the current
      path.
    * **Bounded or unpruned**: every in-window alternative at each step
      below ``max_depth`` of a run with fewer than ``preemption_bound``
      deviations; siblings enter with the recording run's pending
      footprints, stored on the state when it is pushed.

    With a restore target (:class:`_NodeContext`), snapshots live on
    the stack: a child resumes from the nearest one at or before its
    fork, forcing the gap.  A DPOR run captures at the states below its
    fork with a CPU left to explore and none yet, a bounded run at the
    new states it will branch at, each with one use per child (the last
    takes the copies over and frees the slot).  Popping a state releases
    its snapshot.
    """
    out = search.out
    dpor = out.dpor
    prune = out.prune
    stack = _Stack()
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
        # The stack keeps this run's states below ``hi``: a DPOR drain
        # all of them, for its race analysis; a bounded search those it
        # branches at.
        if dpor:
            hi = sys.maxsize
        elif preemption_bound is not None and generation >= preemption_bound:
            hi = 0
        else:
            hi = sys.maxsize if max_depth is None else max_depth
        resume = None
        capture = ()
        if search.target is not None:
            start = 0
            if fork is not None:
                for k in range(fork, -1, -1):
                    if stack.snapshot[k] is not None:
                        resume = (k, stack.snapshot[k])
                        start = k
                        break
            if dpor:
                capture = tuple(
                    k for k in range(start + (resume is not None), fork or 0)
                    if stack.snapshot[k] is None
                    and stack.todo(k) is not None)
            else:
                capture = range(len(prefix), hi)
        policy, recorder, captured = search.node(
            prefix, sleep_entries, generation, resume, capture)
        if resume is not None and resume[1].uses == 0:
            stack.snapshot[resume[0]] = None

        # Push the run's new states and analyse its new steps' races.
        lo = 0 if fork is None else fork
        stack.truncate(0 if fork is None else fork + 1)
        n = 0
        if policy is not None:
            # A run that died mid-step chose its last step but never
            # recorded it: a recorded run keeps only its closed steps.
            n = (len(policy.choices) if recorder is None
                 else len(recorder.footprints))
        if n > lo:
            choices = policy.choices
            if fork is not None:
                stack.choices[fork] = choices[fork]
                if dpor:
                    fp = recorder.footprints[fork]
                    stack.footprints[fork] = fp
                    stack.deliveries[fork] = recorder.deliveries[fork]
                    stack.done[fork][choices[fork]] = fp
            top = min(n, hi)
            height = len(stack)
            if recorder is None:
                for k in range(height, top):
                    stack.push(choices[k], policy.candidates[k], None, None,
                               _EMPTY, generation, set(policy.candidates[k]))
            else:
                pending = ()
                if not dpor and height < top:
                    pending = pending_footprints(
                        choices[:n], recorder.footprints,
                        recorder.deliveries, range(n_cpus), height)
                for k in range(height, top):
                    stack.push(choices[k], policy.candidates[k],
                               recorder.footprints[k],
                               recorder.deliveries[k],
                               recorder.sleep_before[k], generation,
                               {choices[k]} if dpor
                               else set(policy.candidates[k]),
                               pending[k - height] if pending else None)
            if stats is not None:
                for k, entry in captured.items():
                    if k < len(stack):
                        stats["deposits"] += 1
                        stack.deposit(k, entry, not dpor)
            if dpor:
                stack.clocks, races = vector_clocks(
                    stack.choices, stack.footprints, stack.deliveries,
                    n_cpus, lo, stack.clocks[:lo])
                add_backtracks(stack.choices, stack.candidates, stack.clocks,
                               races, stack.backtrack, stack.sleep,
                               race_stats, hi=max_depth)
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
        alt_fp = None
        if dpor:
            alt_fp = pending_footprints(stack.choices, stack.footprints,
                                        stack.deliveries, (alt,), k)[0][alt]
        elif prune:
            alt_fp = stack.pending[k].get(alt)
        sleep_entries = None
        if prune:
            sleep_entries = sleep_seed(
                list(stack.sleep[k].items())
                + [(cpu, (fp, k)) for cpu, fp in stack.done[k].items()],
                alt, alt_fp or GLOBAL_FOOTPRINT)
        # A DPOR sibling enters later sleep sets with its exact
        # footprint once it has run.
        stack.done[k][alt] = None if dpor else alt_fp
        prefix = tuple(stack.choices[:k]) + (alt,)
        generation = stack.generation[k] + 1
    out.races = race_stats.races
    out.backtracks = race_stats.insertions
    out.window_fallbacks = race_stats.fallbacks


# ----------------------------------------------------------------------
# The search driver
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
    #: True if ``max_schedules`` stopped the search before it drained.
    truncated: bool = False
    #: Whether the search resumed nodes from mid-run checkpoints.
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
    #: Engine steps the search's runs executed, and the steps they
    #: skipped by resuming from a checkpoint (a restored prefix).  Both
    #: are exact, so they show checkpoint reuse without a clock; a
    #: stateless search restores nothing.
    live_steps: int = 0
    restored_steps: int = 0

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

    Every search runs depth-first (:func:`_explore`).  With a
    ``preemption_bound``, or without pruning, it branches on every
    in-window alternative of the runs with fewer than
    ``preemption_bound`` forced deviations — preemption bounding, where
    generation ``b`` holds the schedules with ``b`` deviations.
    Unbounded (``preemption_bound=None``) and pruned, it is a
    source-set DPOR drain.  ``report``, if given, sees every
    :class:`ScheduleVerdict` in enumeration order.  ``timeout`` is the
    per-node budget in seconds: a node over it, or one that raises,
    becomes a run-failure verdict and the search goes on.
    ``max_schedules`` caps the total number of runs as a safety net and
    marks the report ``truncated``; the capped search has judged the
    first runs of its depth-first order.

    ``checkpoint`` (default on; gated per search by
    :func:`_checkpoint_supported`) lets a run resume from a snapshot
    instead of replaying from cycle 0: a child forks from the nearest
    snapshot at or before its fork state on the DFS stack.  Every
    verdict is identical with it on or off — ``--no-checkpoint`` is the
    differential control.  The search owns its checkpoints and restore
    target: none outlives it, however it ends.
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
    search = _Search(out, config, report, timeout, max_cycles)
    _explore(search, config.n_cpus, preemption_bound, max_depth,
             max_schedules)
    return out
