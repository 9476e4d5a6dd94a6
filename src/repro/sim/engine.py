"""The execution-driven chip-multiprocessor simulation engine.

:class:`Machine` runs one simulated program per CPU.  Programs are Python
generators yielding :mod:`~repro.sim.ops` operations; the engine is a
discrete-event scheduler that picks the next runnable CPU through a
pluggable :class:`~repro.sim.schedule.SchedulePolicy`.  The default
policy steps the runnable CPU with the smallest local time (ties break by
CPU id), so inter-CPU event ordering is globally consistent and fully
deterministic; the checking layer substitutes randomized policies to
explore other interleavings.

The engine also implements the *hardware* side of the paper's handler
architecture:

* at every instruction boundary it checks the violation registers and, if
  a conflict is pending and reporting is enabled, suspends the program and
  runs the dispatcher code named by ``xvhcode`` (or ``xahcode`` after an
  ``xabort``) as an interrupt-style frame on the same CPU;
* when a dispatcher decides to roll back, the engine throws
  :class:`~repro.common.errors.TxRollback` into the program, unwinding the
  Python frames of the transaction body down to its ``atomic`` wrapper —
  the model of discarding the speculative register state and jumping to
  the restart PC.

**Frames and call stacks.**  ``Cpu.frames`` is the interrupt-level stack:
the program, then one frame per active dispatcher.  Each frame owns a
*call stack*, ``Cpu.calls[i]``, whose bottom is ``frames[i]`` and whose
top is the generator that frame is currently running.  A generator that
yields :class:`~repro.sim.ops.Call` pushes the callee; when the callee
returns or raises, :func:`_advance` pops it and hands the value or the
exception to its caller — exactly the semantics of ``yield from``, but a
step resumes one generator instead of every frame of a nesting chain.
``Runtime.atomic`` runs each transaction body this way.  Whatever tears
frames down (``_kill``, a finished or escaped dispatcher, a capacity
abort) keeps ``calls`` aligned with ``frames``, and closes innermost
first.

Instruments subscribe through :meth:`Machine.observe`: the machine and
its HTM emit the architectural events of :mod:`repro.obs.observer`.
"""

from __future__ import annotations

import heapq
from types import GeneratorType

from repro.common.errors import (
    CapacityAbort,
    DeadlockError,
    SimulationError,
    TxRollback,
)
from repro.htm.system import HtmSystem
from repro.isa.codereg import CodeRegistry
from repro.isa.context import DONE, RUNNABLE, WAITING, Cpu, OpCache
from repro.isa.dispatch import (
    HandlerOutcome,
    default_abort_dispatcher,
    default_violation_dispatcher,
)
from repro.isa.state import IsaState
from repro.memsys.hierarchy import make_memory_model
from repro.memsys.memory import MemoryImage
from repro.common.stats import Stats
from repro.obs.observer import (
    MACHINE_EVENTS,
    clear_subscribers,
    subscriptions,
)
from repro.sim.ops import Alu, Call, Op
from repro.sim.schedule import DeterministicPolicy

#: Hard cap on consecutive capacity aborts of one transaction before the
#: engine declares the workload unrunnable on this hardware configuration.
CAPACITY_RETRY_LIMIT = 16

#: Shared journal record for a parked-op re-issue (no generator call).
_FEED_PARKED = ("p",)

#: What the lean step fetches when the frame's own generator ended the
#: step (returned, or raised); it executes nothing.
_ENDED = object()


def _advance(stack, exc, value):
    """Resume the call stack ``stack`` with ``value`` (or throw ``exc``)
    and return the next thing its top generator yields that is not a
    :class:`~repro.sim.ops.Call`.

    ``stack[0]``, the frame's own generator, is never popped: its return
    (``StopIteration``) and its exceptions propagate to the caller of
    ``_advance``, which decides what they mean for the frame.  A
    ``Call``, or a callee's return or exception, goes on through
    :func:`_settle`.
    """
    try:
        if exc is None:
            op = stack[-1].send(value)
        else:
            op = stack[-1].throw(exc)
    except BaseException as error:
        if len(stack) == 1:
            raise
        return _settle(stack, None, error)
    if op.__class__ is not Call:
        return op
    return _settle(stack, op, None)


def _settle(stack, op, error):
    """Go on with a resume of ``stack`` whose top generator yielded the
    :class:`~repro.sim.ops.Call` ``op``, or raised ``error`` although it
    is not ``stack[0]``; return the next thing the stack yields that is
    not a ``Call``.

    A ``Call`` pushes its generator, which starts with ``None``.  A
    callee that returns hands its value to its caller; one that raises
    (``TxRollback`` included: it is a ``BaseException``) hands its
    exception to its caller.  Both pop it.  As in :func:`_advance`,
    ``stack[0]``'s return and exceptions propagate.  A ``Call`` of
    anything but a generator raises :class:`SimulationError` at the
    yield, where a ``yield from`` of a non-iterable would raise its
    ``TypeError``.
    """
    while True:
        if error is None:
            callee = op.generator
            value = exc = None
            if callee.__class__ is GeneratorType:
                stack.append(callee)
            else:
                exc = SimulationError(f"Call of a non-generator: {callee!r}")
        else:
            stack.pop()
            value = exc = None
            if isinstance(error, StopIteration):
                value = error.value
            else:
                # Hand it over without the resuming frame in its
                # traceback, as ``yield from`` would: a traceback entry
                # for that frame would hold its locals (the call stack,
                # the exception itself) in a reference cycle.
                exc = error.with_traceback(error.__traceback__.tb_next)
        gen = stack[-1]
        try:
            if exc is None:
                op = gen.send(value)
            else:
                op = gen.throw(exc)
        except BaseException as raised:
            if len(stack) == 1:
                raise
            error = raised
            continue
        if op.__class__ is not Call:
            return op
        error = None


class Machine:
    """One simulated CMP: CPUs, memory system, HTM, and the scheduler."""

    #: Snapshot state (repro.sim.snapshot).  The CPUs' generator frames
    #: are rebuilt by ghost replay, and ``_ready`` by every ``run``.
    _state = ("now", "_live_programs", "_capacity_retries", "stats",
              "memory", "memmodel", "htm", "cpus")
    #: Per-CPU parts a snapshot keeps for the bound CPUs only.
    _per_cpu = ("cpus",)

    def __init__(self, config, policy=None):
        self.config = config
        self.stats = Stats()
        #: Ready-CPU selection strategy (repro.sim.schedule).  The default
        #: deterministic policy reproduces the historical schedule exactly.
        self.policy = policy if policy is not None else DeterministicPolicy()
        self.memory = MemoryImage()
        self.memmodel = make_memory_model(config, self.stats)
        self.htm = HtmSystem(config, self.memory, self.stats)
        self.codereg = CodeRegistry()
        #: Interned ops and outcomes (host-side, not simulated state).
        self.ops = OpCache()
        self.cpus = [Cpu(cpu_id, self) for cpu_id in range(config.n_cpus)]
        self.htm.attach_violation_sink(self._post)
        self.now = 0
        #: Cold-path fault hooks (repro.faults.FaultInjector when one is
        #: attached, else None).  Library code that wants an injectable
        #: seam outside the engine's own methods — txio's syscalls, the
        #: allocator — probes this attribute; with no injector attached
        #: the probe is a single getattr on the cold path and the hot
        #: paths are untouched.
        self.fault_hooks = None
        #: Attached observers (repro.obs.observer), in attach order.
        self._observers = []
        clear_subscribers(self, MACHINE_EVENTS)
        #: Step journal (repro.sim.snapshot.StepJournal) when snapshot
        #: checkpointing is enabled.  None keeps every hot path at a
        #: single attribute probe.
        self._journal = None
        #: CPUs a program was ever bound to, ascending.  The others
        #: never leave their just-built state, so snapshots skip them.
        self._bound_cpus = ()
        #: The snapshot save/load generated for this machine (on its
        #: first capture), or None.
        self._shape = None
        #: Steps executed before this run's loop started: a machine
        #: restored from a mid-run snapshot resumes the count here so
        #: ``engine.steps`` matches the straight-line run bit-for-bit.
        self._steps_base = 0
        self._capacity_retries = [0] * config.n_cpus
        #: Heap-backed ready queue, kept for the deterministic policy so
        #: picking the next CPU is O(log n) instead of a full scan.  An
        #: entry is the int ``resume_at * n_cpus + cpu_id``, which sorts
        #: exactly like the tuple ``(resume_at, cpu_id)``.  Entries go
        #: stale when a CPU's state or resume_at changes; the run loop
        #: discards them lazily.
        self._ready = []
        self._n_cpus = config.n_cpus
        self._use_heap = bool(getattr(self.policy, "uses_ready_heap", False))
        #: Non-daemon programs still bound to a CPU; the run loop ends
        #: when this reaches zero (replaces the per-step all-CPUs scan).
        self._live_programs = 0
        # Pre-bound per-CPU counters for the dispatch/outcome hot paths
        # (same counter names as before, resolved once instead of an
        # f-string per event).
        self._n_resumes = [
            cpu.stats.counter("htm.handler_resumes") for cpu in self.cpus]
        self._n_rollbacks = [
            cpu.stats.counter("htm.handler_rollbacks") for cpu in self.cpus]
        self._n_dispatches = {
            kind: [cpu.stats.counter(f"htm.dispatches_{kind}")
                   for cpu in self.cpus]
            for kind in ("violation", "abort")
        }
        self._n_capacity_aborts = [
            cpu.stats.counter("htm.capacity_aborts") for cpu in self.cpus]

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------

    def make_isa_state(self, cpu_id):
        return IsaState(cpu_id)

    def add_thread(self, program_factory, cpu_id=None, daemon=False):
        """Bind a program to a CPU.

        ``program_factory(t)`` must return a generator; ``t`` is the
        :class:`~repro.isa.context.Cpu` handle the program drives.
        """
        if cpu_id is None:
            cpu_id = next(
                (c.cpu_id for c in self.cpus if c.state == DONE
                 and not c.frames), None)
            if cpu_id is None:
                raise SimulationError("no free CPU for program")
        cpu = self.cpus[cpu_id]
        if cpu.frames:
            raise SimulationError(f"cpu {cpu_id} already has a program")
        program = program_factory(cpu)
        if not hasattr(program, "send"):
            raise SimulationError(
                "program_factory must return a generator (did you forget "
                "a yield?)")
        cpu.frames = [program]
        cpu.calls = [[program]]
        cpu.state = RUNNABLE
        cpu.resume_at = 0
        cpu.daemon = daemon
        # Rebinding a DONE CPU must not leak the previous program's
        # state into this one: a stale banked wake token would suppress
        # the new program's first YieldCpu sleep, and a stale pending op
        # result would be sent into the just-started generator.
        cpu.wake_tokens = 0
        cpu.send_value = None
        cpu.throw_exc = None
        cpu.pending_abort = False
        if not daemon:
            self._live_programs += 1
        if cpu_id not in self._bound_cpus:
            self._bound_cpus = tuple(sorted((*self._bound_cpus, cpu_id)))
        if self._use_heap:
            heapq.heappush(
                self._ready, cpu.resume_at * self._n_cpus + cpu_id)
        return cpu

    # ------------------------------------------------------------------
    # Observers
    # ------------------------------------------------------------------

    def observe(self, observer):
        """Subscribe ``observer`` (a :class:`repro.obs.observer.Observer`)
        to the machine's and the HTM's events; idempotent."""
        if observer in self._observers:
            return
        self._observers.append(observer)
        for attr, name, on_htm in subscriptions(type(observer)):
            target = self.htm if on_htm else self
            setattr(target, attr,
                    getattr(target, attr) + (getattr(observer, name),))

    def unobserve(self, observer):
        """Unsubscribe ``observer``; exact in any order, idempotent."""
        if observer not in self._observers:
            return
        self._observers.remove(observer)
        for attr, name, on_htm in subscriptions(type(observer)):
            target = self.htm if on_htm else self
            fns = getattr(target, attr)
            i = fns.index(getattr(observer, name))
            setattr(target, attr, fns[:i] + fns[i + 1:])

    # ------------------------------------------------------------------
    # Violation plumbing
    # ------------------------------------------------------------------

    def _post(self, violation):
        """The detector's violation sink: announce the post, then queue
        it at the victim (through ``_deliver``, which a fault injector
        may hold back)."""
        for fn in self._on_violation:
            fn(violation)
        self._deliver(violation)

    def _deliver(self, violation):
        self.cpus[violation.victim].deliver(violation)
        for fn in self._on_queued:
            fn(violation)

    def wake(self, cpu_id):
        """Wake ``cpu_id`` (IPI); a wakeup of a runnable thread banks a
        token so a subsequent ``YieldCpu`` does not sleep (no lost
        wakeups)."""
        for fn in self._on_wake:
            fn(cpu_id)
        cpu = self.cpus[cpu_id]
        if cpu.state == WAITING:
            cpu.state = RUNNABLE
            cpu.resume_at = max(cpu.resume_at, self.now + 1)
            if self._use_heap:
                heapq.heappush(
                    self._ready, cpu.resume_at * self._n_cpus + cpu_id)
        elif cpu.state == RUNNABLE:
            cpu.wake_tokens += 1

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def run(self, max_cycles=200_000_000, max_steps=None):
        """Run until every non-daemon program finishes.

        Returns the final cycle count.  Raises
        :class:`~repro.common.errors.DeadlockError` if all live threads
        are waiting, and :class:`SimulationError` on cycle overrun.
        """
        # The deterministic policy's (resume_at, cpu_id) pick is exactly
        # the heap order, so the engine short-circuits policy.choose with
        # a pop; randomized policies still see the full runnable list.
        use_heap = self._use_heap = bool(
            getattr(self.policy, "uses_ready_heap", False))
        if use_heap:
            n_cpus = self._n_cpus
            self._ready = [
                cpu.resume_at * n_cpus + cpu.cpu_id for cpu in self.cpus
                if cpu.frames and cpu.state == RUNNABLE
            ]
            heapq.heapify(self._ready)
        # The lean step (see _run_loop) serves the heap's schedule with
        # nothing per step to honour: no step limit, no journal, no step
        # subscriber, no ``_step`` shadow (a fault injector's).
        lean = (use_heap and max_steps is None and self._journal is None
                and not self._on_step and "_step" not in vars(self))
        try:
            return self._run_loop(use_heap, lean, max_cycles, max_steps)
        finally:
            # Plain-attribute hot counters become visible stats even when
            # the run ends in DeadlockError/SimulationError.
            for cpu in self.cpus:
                cpu.flush_stats()
            self.memmodel.flush_stats()
            self.htm.flush_stats()

    def _run_loop(self, use_heap, lean, max_cycles, max_steps):
        # Loop-invariant lookups hoisted out of the per-step path.  The
        # per-step callables (self._step, which a fault injector may
        # shadow, and the step subscribers) stay attribute probes, so
        # outside a lean run anything attached mid-run takes effect; a
        # lean run honours the ones attached when it started (none).
        cpus = self.cpus
        n_cpus = self._n_cpus
        heappop = heapq.heappop
        heapreplace = heapq.heapreplace
        choose = self.policy.choose
        retries = self._capacity_retries
        steps = 0
        try:
            while self._live_programs > 0:
                if use_heap:
                    # Pop the earliest valid ready entry.  Entries are
                    # pushed whenever a CPU becomes runnable or changes
                    # its resume_at; superseded ones (the CPU is no
                    # longer runnable, or its resume_at moved) are
                    # dropped here.  Every runnable CPU has an
                    # up-to-date entry, so the first valid one is the
                    # deterministic policy's choice.
                    ready = self._ready
                    cpu = None
                    while ready:
                        key = heappop(ready)
                        candidate = cpus[key % n_cpus]
                        if (candidate.state == RUNNABLE and candidate.frames
                                and candidate.resume_at * n_cpus
                                + candidate.cpu_id == key):
                            cpu = candidate
                            break
                else:
                    runnable = [
                        cpu for cpu in cpus
                        if cpu.frames and cpu.state == RUNNABLE
                    ]
                    cpu = choose(runnable) if runnable else None
                if cpu is None:
                    waiting = [
                        cpu.cpu_id for cpu in cpus
                        if cpu.frames and cpu.state == WAITING
                        and not cpu.daemon
                    ]
                    raise DeadlockError(
                        f"all threads waiting at cycle {self.now}: {waiting}")
                while True:
                    now = cpu.resume_at
                    if now > self.now:
                        self.now = now
                    else:
                        now = self.now
                    if now > max_cycles:
                        raise SimulationError(
                            f"simulation exceeded {max_cycles} cycles")
                    if max_steps is not None and steps >= max_steps:
                        raise SimulationError(
                            f"simulation exceeded {max_steps} steps")
                    steps += 1
                    if not (lean and cpu.throw_exc is None
                            and not cpu.pending_abort and not cpu.parked
                            and not (cpu.isa._vqueue
                                     and cpu.isa.viol_reporting)
                            and cpu.execute is cpu._table_execute):
                        self._step(cpu)
                        for fn in self._on_step:
                            fn(cpu)
                        journal = self._journal
                        if journal is not None:
                            journal.close_step(self, cpu)
                    else:
                        # The lean step: what ``_step`` does when there
                        # is nothing to dispatch, re-issue or throw, and
                        # nobody shadows ``cpu.execute``.  An Alu runs
                        # here, as ``Cpu._exec_alu`` would run it.
                        stack = cpu.calls[-1]
                        value = cpu.send_value
                        cpu.send_value = None
                        try:
                            op = stack[-1].send(value)
                        except BaseException as error:
                            op = self._fetch_rest(cpu, None, error)
                        else:
                            if op.__class__ is Call:
                                op = self._fetch_rest(cpu, op, None)
                        kind = op.__class__
                        if kind is Alu:
                            cycles = op.cycles
                            cpu.icount += cycles
                            if cpu.dispatch_depth:
                                cpu.handler_icount += cycles
                            if retries[cpu.cpu_id]:
                                retries[cpu.cpu_id] = 0
                            cpu.resume_at = now + (
                                cycles if cycles > 1 else 1)
                        elif (handler := cpu._dispatch.get(kind)) is not None:
                            try:
                                outcome = handler(op, now)
                            except CapacityAbort as overflow:
                                self._handle_capacity_abort(cpu, overflow)
                            else:
                                if outcome.stall:
                                    cpu.parked[len(cpu.frames) - 1] = op
                                    cpu.resume_at = now + 2
                                else:
                                    cpu.icount += 1
                                    if cpu.dispatch_depth:
                                        cpu.handler_icount += 1
                                    if retries[cpu.cpu_id]:
                                        retries[cpu.cpu_id] = 0
                                    cpu.send_value = outcome.value
                                    latency = outcome.latency
                                    cpu.resume_at = now + (
                                        latency if latency > 1 else 1)
                                    if outcome.deschedule:
                                        self._park(cpu)
                        elif op is not _ENDED:
                            if not isinstance(op, Op):
                                self._reject(cpu, op)
                            else:
                                # Not in the table: raises as in _step.
                                cpu.execute(op, now)
                    if not (use_heap and cpu.state == RUNNABLE
                            and cpu.frames):
                        break
                    # Run-ahead: when no ready entry could be popped
                    # before this CPU's next step — (resume_at, cpu_id)
                    # heap order, so the comparison *is* the scheduling
                    # decision — step it again without the push/pop
                    # round-trip.  An equal head entry is this CPU's own
                    # stale entry (same key = same cpu_id); anything
                    # smaller wins the pop, so swap our entry for it and
                    # go on with its CPU if the entry is live (a stale
                    # one sends us to the pop above).
                    if self._live_programs <= 0:
                        break
                    ready = self._ready
                    entry = cpu.resume_at * n_cpus + cpu.cpu_id
                    if ready and ready[0] < entry:
                        key = heapreplace(ready, entry)
                        cpu = cpus[key % n_cpus]
                        if not (cpu.state == RUNNABLE and cpu.frames
                                and cpu.resume_at * n_cpus + cpu.cpu_id
                                == key):
                            break
        finally:
            # Failed runs (DeadlockError, cycle overrun, workload
            # exceptions) keep their cycle and step counts — the stats
            # must describe the run that actually happened, not only
            # clean exits.
            self.stats.set("cycles", self.now)
            self.stats.add("engine.steps", steps + self._steps_base)
        for failed in self.cpus:
            if failed.failure is not None:
                raise failed.failure
        return self.now

    # ------------------------------------------------------------------

    def _step(self, cpu):
        # Instruction-boundary checks: abort dispatch takes priority, then
        # violation delivery.  The reporting-enable flag is the hardware
        # guard — it is cleared on dispatch and restored by xvret, so a
        # handler is not recursively interrupted unless it deliberately
        # re-enables reporting (xenviolrep before an open-nested
        # transaction, paper footnote 1).
        journal = self._journal
        if journal is not None:
            journal.begin_step(cpu)
        if cpu.throw_exc is None:
            if cpu.pending_abort:
                cpu.pending_abort = False
                self._push_dispatcher(cpu, kind="abort")
            else:
                isa = cpu.isa
                # Direct ``_vqueue`` probe == isa.has_deliverable(),
                # minus a method call on the per-instruction path.
                if isa.viol_reporting and isa._vqueue:
                    # A stalled operation (e.g. waiting for the commit
                    # token) that gets overtaken by a violation stays
                    # parked: it re-issues if the handler resumes, and is
                    # dropped by the rollback path.
                    self._push_dispatcher(cpu, kind="violation")

        # Fetch the next operation (or retry this frame's stalled one)
        # from the top generator of the top frame's call stack.
        parked = cpu.parked
        frame_index = len(cpu.frames) - 1
        if parked and frame_index in parked and cpu.throw_exc is None:
            if journal is not None:
                journal.stage_feed(_FEED_PARKED)
            op = parked.pop(frame_index)
        else:
            exc = cpu.throw_exc
            if exc is not None:
                cpu.throw_exc = None
                value = None
                if journal is not None:
                    journal.stage_feed(("t", exc))
            else:
                value = cpu.send_value
                cpu.send_value = None
                if journal is not None:
                    journal.stage_feed(("s", value))
            try:
                op = _advance(cpu.calls[-1], exc, value)
            except BaseException as error:
                self._frame_raised(cpu, error)
                return
        if not isinstance(op, Op):
            self._reject(cpu, op)
            return

        # Execute.  The frame stack cannot change during execute, so the
        # fetched frame_index stays valid for the stall-park below.
        # While no instrument shadows ``cpu.execute``, the engine looks
        # the handler up itself and counts the instruction the way
        # ``Cpu._execute_step`` does, saving the executor's frame.
        now = self.now
        execute = cpu.execute
        handler = (cpu._dispatch.get(op.__class__)
                   if execute is cpu._table_execute else None)
        try:
            if handler is None:
                outcome = execute(op, now)
            else:
                outcome = handler(op, now)
        except CapacityAbort as overflow:
            self._handle_capacity_abort(cpu, overflow)
            return
        if outcome.stall:
            # Retry quickly: an eager-mode winner must re-issue its access
            # inside the victim's rollback window, before the restarted
            # victim re-acquires the line (the LogTM retry-after-NACK).
            parked[frame_index] = op
            cpu.resume_at = now + 2
            return
        if handler is not None:
            count = op.cycles if op.__class__ is Alu else 1
            cpu.icount += count
            if cpu.dispatch_depth:
                cpu.handler_icount += count
        retries = self._capacity_retries
        if retries[cpu.cpu_id]:
            retries[cpu.cpu_id] = 0
        cpu.send_value = outcome.value
        latency = outcome.latency
        cpu.resume_at = now + (latency if latency > 1 else 1)
        if outcome.deschedule:
            self._park(cpu)

    def _fetch_rest(self, cpu, op, error):
        """The lean step's send into ``cpu``'s top generator yielded the
        :class:`~repro.sim.ops.Call` ``op``, or raised ``error``: go on
        as ``_step``'s fetch would.  Returns the op to execute, or
        ``_ENDED`` when the frame's own generator ended the step."""
        stack = cpu.calls[-1]
        if error is not None and len(stack) == 1:
            self._frame_raised(cpu, error)
            return _ENDED
        try:
            return _settle(stack, op, error)
        except BaseException as raised:
            self._frame_raised(cpu, raised)
            return _ENDED

    def _frame_raised(self, cpu, error):
        """The frame's own generator raised ``error`` where a step
        resumed it: it returned (``StopIteration``), a rollback escaped
        it, or the workload failed.  Anything else propagates."""
        if isinstance(error, StopIteration):
            self._frame_finished(cpu, error.value)
        elif isinstance(error, TxRollback):
            self._rollback_escaped(cpu, error)
        elif isinstance(error, Exception):
            cpu.failure = error
            self._kill(cpu)
        else:
            raise error

    def _reject(self, cpu, op):
        """Kill the program on ``cpu``: it yielded ``op``, not an op."""
        cpu.failure = SimulationError(
            f"cpu {cpu.cpu_id} yielded non-op {op!r}")
        self._kill(cpu)

    def _park(self, cpu):
        """Deschedule ``cpu`` until a wake (the YieldCpu sleep side).

        The fault injector wraps this to flush delayed violations once
        the CPU is parked (a parked CPU must not miss its wake)."""
        for fn in self._on_park:
            fn(cpu)
        cpu.state = WAITING

    def _fault_event(self, kind, cpu_id, detail):
        """A fault injector just fired ``kind`` on ``cpu_id``."""
        for fn in self._on_fault:
            fn(kind, cpu_id, detail)

    def _rollback_escaped(self, cpu, rollback):
        """A rollback escaped the frame ``_step`` just resumed.  From a
        dispatcher frame this is the normal hand-off to the program
        below; from the program frame it means no atomic wrapper caught
        it."""
        if len(cpu.frames) > 1:
            # The dispatcher died before finishing: re-queue the
            # conflict it was handling for any level that survives
            # this rollback (it must be re-delivered, not silently
            # dropped), then restore the interrupted frame's violation
            # registers so that if *it* is also a dying dispatcher,
            # its record is re-queued in turn on the next unwind step.
            cpu.isa.requeue_current(rollback.level)
            cpu.parked.pop(len(cpu.frames) - 1, None)
            cpu.frames.pop()
            cpu.calls.pop()
            cpu.dispatch_depth -= 1
            index = len(cpu.frames) - 1
            cpu.parked.pop(index, None)
            cpu.saved_sends.pop(index, None)
            saved = cpu.saved_viol.pop(index, None)
            if saved is not None:
                cpu.isa.xvcurrent, cpu.isa.xvaddr = saved
            cpu.isa.viol_reporting = True
            cpu.throw_exc = rollback
            return
        cpu.failure = SimulationError(
            f"cpu {cpu.cpu_id}: rollback escaped the program "
            f"(level {rollback.level}, {rollback.reason})")
        self._kill(cpu)

    def _frame_finished(self, cpu, value):
        if len(cpu.frames) > 1:
            # A dispatcher returned its outcome.
            cpu.frames.pop()
            cpu.calls.pop()
            cpu.dispatch_depth -= 1
            index = len(cpu.frames) - 1
            cpu.send_value = cpu.saved_sends.pop(index, None)
            saved = cpu.saved_viol.pop(index, None)
            if saved is not None:
                cpu.isa.xvcurrent, cpu.isa.xvaddr = saved
            outcome = value if value is not None else HandlerOutcome.resume()
            self._apply_outcome(cpu, outcome)
            return
        # The program finished.  Clear the dispatch bookkeeping exactly
        # like _kill does: anything left behind (a parked op, a saved op
        # result, saved violation registers) belongs to the finished
        # program, and a CPU rebound via add_thread must not replay it.
        cpu.frames = []
        cpu.calls = []
        cpu.parked.clear()
        cpu.saved_sends.clear()
        cpu.saved_viol.clear()
        cpu.dispatch_depth = 0
        cpu.result = value
        cpu.state = DONE
        if not cpu.daemon:
            self._live_programs -= 1
        if self.htm.depth(cpu.cpu_id):
            cpu.failure = SimulationError(
                f"cpu {cpu.cpu_id} finished inside an open transaction "
                f"(depth {self.htm.depth(cpu.cpu_id)})")

    def _apply_outcome(self, cpu, outcome):
        for fn in self._on_outcome:
            fn(cpu, outcome)
        if not isinstance(outcome, HandlerOutcome):
            cpu.failure = SimulationError(
                f"cpu {cpu.cpu_id}: dispatcher returned {outcome!r}, "
                "not a HandlerOutcome")
            self._kill(cpu)
            return
        # xvret re-enabled reporting; any conflicts that arrived while the
        # handler ran are still queued and will re-invoke the innermost
        # handler at the next instruction boundary (§4.6).
        cpu.isa.viol_reporting = True
        if outcome.kind == "resume":
            self._n_resumes[cpu.cpu_id].add()
            return
        self._n_rollbacks[cpu.cpu_id].add()
        # The frame receives an exception, not a value; drop its parked
        # op and any saved op result.
        cpu.parked.pop(len(cpu.frames) - 1, None)
        cpu.send_value = None
        cpu.throw_exc = TxRollback(
            outcome.level, outcome.reason, code=outcome.code,
            vaddr=outcome.vaddr)

    def _push_dispatcher(self, cpu, kind):
        isa = cpu.isa
        isa.xvpc = cpu.icount
        isa.viol_reporting = False
        # Save the interrupted frame's violation registers and pending op
        # result; both are restored when the dispatcher resumes it.
        cpu.saved_viol[len(cpu.frames) - 1] = (isa.xvcurrent, isa.xvaddr)
        if kind == "violation":
            isa.pop_next()
            code_id = isa.xvhcode
            factory = (self.codereg.get(code_id) if code_id
                       else default_violation_dispatcher)
        else:
            code_id = isa.xahcode
            factory = (self.codereg.get(code_id) if code_id
                       else default_abort_dispatcher)
        cpu.saved_sends[len(cpu.frames) - 1] = cpu.send_value
        cpu.send_value = None
        dispatcher = factory(cpu)
        cpu.frames.append(dispatcher)
        cpu.calls.append([dispatcher])
        cpu.dispatch_depth += 1
        self._n_dispatches[kind][cpu.cpu_id].add()
        if self._journal is not None:
            # Post-pop register values: the ghost replay cannot rerun
            # pop_next (its queue drifts), so the record carries them.
            self._journal.stage_push(
                kind, code_id, isa.xvcurrent, isa.xvaddr, isa.xvpc)
        for fn in self._on_dispatch:
            fn(cpu, kind)

    def _handle_capacity_abort(self, cpu, overflow):
        self._capacity_retries[cpu.cpu_id] += 1
        self._n_capacity_aborts[cpu.cpu_id].add()
        if self._capacity_retries[cpu.cpu_id] > CAPACITY_RETRY_LIMIT:
            cpu.failure = SimulationError(
                f"cpu {cpu.cpu_id}: transaction exceeds hardware capacity "
                f"even after {CAPACITY_RETRY_LIMIT} retries: "
                f"{overflow.detail}")
            self._kill(cpu)
            return
        if self.htm.depth(cpu.cpu_id) >= 1:
            cpu.do_rollback(1)
        # Unwind any dispatcher frames, then the program, to level 1.
        # The dropped dispatcher frames are not closed; the program's
        # call stack stays, and the abort is thrown into its top.
        cpu.dispatch_depth -= len(cpu.frames) - 1
        del cpu.frames[1:]
        del cpu.calls[1:]
        cpu.isa.viol_reporting = True
        cpu.pending_abort = False
        cpu.parked.clear()
        cpu.saved_sends.clear()
        cpu.saved_viol.clear()
        cpu.send_value = None
        # The abort discards the transaction the wakeup was aimed at; a
        # banked token surviving it would eat the retry's next sleep.
        cpu.wake_tokens = 0
        cpu.throw_exc = CapacityAbort(1, overflow.detail)
        cpu.resume_at = self.now + 1
        if self._journal is not None:
            self._journal.stage_unwound()

    def _kill(self, cpu):
        if cpu.frames and not cpu.daemon:
            self._live_programs -= 1
        # Innermost first: each frame's callees, then the frame.
        for stack in reversed(cpu.calls):
            for generator in reversed(stack):
                generator.close()
        cpu.frames = []
        cpu.calls = []
        cpu.parked.clear()
        cpu.saved_sends.clear()
        cpu.saved_viol.clear()
        cpu.dispatch_depth = 0
        # Tokens banked for the dead program must not suppress a later
        # program's first YieldCpu sleep on a rebound CPU.
        cpu.wake_tokens = 0
        cpu.send_value = None
        cpu.throw_exc = None
        cpu.pending_abort = False
        cpu.state = DONE
        self.htm.abandon_all(cpu.cpu_id)

    # ------------------------------------------------------------------
    # Snapshot / restore (repro.sim.snapshot)
    # ------------------------------------------------------------------

    def enable_journal(self):
        """Start recording the step journal snapshots replay from.
        Returns the journal; idempotent."""
        if self._journal is None:
            from repro.sim.snapshot import StepJournal

            self._journal = StepJournal()
        return self._journal

    def disable_journal(self):
        """Stop recording the step journal; snapshots already taken keep
        their view of it.  Idempotent."""
        self._journal = None

    def snapshot(self, books=()):
        """Deep, deterministic capture of the whole machine mid-run.

        Each of ``books`` (components outside the machine that declare
        ``_state``) is captured with it.  Requires
        :meth:`enable_journal` to have been called before the run
        started; see :mod:`repro.sim.snapshot` for the model."""
        from repro.sim.snapshot import capture

        return capture(self, books)

    def restore(self, snapshot, setup_fn, books=()):
        """Restore this machine to ``snapshot`` so a subsequent
        :meth:`run` resumes mid-schedule.  ``setup_fn(machine)`` must
        re-run the original program setup (same program, same seed) and
        return the program object.  ``books`` are the counterparts of
        the captured ones, loaded after the machine.  ``self.policy`` is
        left as it is: a caller resuming a stateful policy installs its
        own copy."""
        from repro.sim.snapshot import restore

        return restore(self, snapshot, setup_fn, books)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def results(self):
        """Per-CPU program return values."""
        return {cpu.cpu_id: cpu.result for cpu in self.cpus}
