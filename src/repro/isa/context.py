"""The hardware thread: architectural state plus the op executor.

A :class:`Cpu` is both the *hardware* (it executes the operations the
program yields, charging latencies through the memory model and driving
the HTM engine) and the *handle* that simulated software holds (it exposes
op constructors such as :meth:`load`, plus the registers in :attr:`isa`).

The engine (:mod:`repro.sim.engine`) owns scheduling, violation-handler
dispatch, and rollback unwinding; this module owns per-instruction
semantics and timing.

Interpreter hot path (docs/performance.md)
------------------------------------------

Every simulated instruction flows through :attr:`Cpu.execute`, so its
constant factor decides the simulator's steps/s.  Two structures keep it
cheap:

* **Dispatch table.**  Each op type maps to a bound handler method in a
  per-CPU dict built once in ``__init__`` from the
  :data:`repro.sim.ops.ALL_OPS` vocabulary; executing an op is one dict
  lookup on ``type(op)`` instead of a ~20-way ``isinstance`` chain.  The
  lookup is by *exact* type: anything else, including a subclass of a
  core op, raises :class:`~repro.common.errors.SimulationError`.

* **Outcome interning.**  Ops whose result carries no value return shared
  immutable :class:`ExecOutcome` instances (the STALL singleton, the
  latency-1 singleton, and a small latency-keyed cache) instead of
  allocating a fresh object per instruction.  Only value-carrying
  outcomes (loads, commits, ...) still allocate.

The table is the only interpreter.  The pre-table ``isinstance`` chain
lives on in the test suite (``tests/reference.py``) as the differential
reference it is checked against.
"""

from __future__ import annotations

import dataclasses
from types import MethodType

from repro.common.errors import IsaError, SimulationError
from repro.htm.conflict import SELF_ABORT, STALL
from repro.htm.system import VALIDATED
from repro.sim import ops as O

#: Thread scheduler states.
RUNNABLE = "runnable"
WAITING = "waiting"
DONE = "done"

@dataclasses.dataclass(slots=True)
class ExecOutcome:
    """Result of executing one operation (slotted to keep the per-step
    cost cheap; hot no-value shapes are shared via interning below)."""

    latency: int = 1
    value: object = None
    stall: bool = False
    deschedule: bool = False


class _InternedOutcome(ExecOutcome):
    """A shared :class:`ExecOutcome` shape, frozen after construction.

    Interned outcomes are returned for *every* op of their shape, so a
    single mutation would silently corrupt every later instruction; the
    override turns that bug into an immediate error.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(
            "interned ExecOutcome instances are immutable (allocate a "
            "fresh ExecOutcome instead of mutating a shared one)")

    def __delattr__(self, name):
        raise AttributeError(
            "interned ExecOutcome instances are immutable (allocate a "
            "fresh ExecOutcome instead of mutating a shared one)")


def _intern(latency=1, value=None, stall=False, deschedule=False):
    outcome = _InternedOutcome.__new__(_InternedOutcome)
    setattr_ = object.__setattr__
    setattr_(outcome, "latency", latency)
    setattr_(outcome, "value", value)
    setattr_(outcome, "stall", stall)
    setattr_(outcome, "deschedule", deschedule)
    return outcome


#: The shared hot shapes: a stalled op, a latency-1/no-value op, and the
#: YieldCpu deschedule.
_STALL = _intern(stall=True)
_UNIT = _intern()
_DESCHEDULE = _intern(deschedule=True)

#: Interned no-value outcomes keyed by latency.  Latencies come from the
#: memory model (cache/memory/bus constants plus bounded queueing), so
#: the working set is small; anything past the cap — pathological custom
#: configs — falls back to a fresh allocation.
_LATENCY_CACHE_LIMIT = 4096
_latency_cache = {1: _UNIT}


def latency_outcome(latency):
    """A no-value :class:`ExecOutcome` with ``latency``, interned."""
    outcome = _latency_cache.get(latency)
    if outcome is None:
        if latency <= _LATENCY_CACHE_LIMIT:
            outcome = _latency_cache[latency] = _intern(latency=latency)
        else:
            outcome = ExecOutcome(latency=latency)
    return outcome


# Interned program-facing ops.  Load/ImLoad/Alu are frozen dataclasses
# fully determined by one field, and programs re-issue the same handful
# of addresses and ALU widths constantly; handing back a shared
# instance skips a dataclass construction per dynamic instruction.
# (Value-carrying Store/ImStore ops are not interned: their value field
# has unbounded variety.)
_OP_CACHE_LIMIT = 1 << 16
_LOAD_CACHE = {}
_IMLOAD_CACHE = {}
_ALU_CACHE = {}


class Cpu:
    """One hardware thread of the simulated CMP."""

    __slots__ = (
        "cpu_id", "machine", "isa", "stats", "icount", "handler_icount",
        "_n_violations_received", "frames", "dispatch_depth", "send_value",
        "throw_exc", "parked", "saved_sends", "saved_viol", "state",
        "resume_at", "daemon", "wake_tokens", "pending_abort", "result",
        "failure", "rt", "_htm", "_mem", "_dispatch", "execute",
    )

    def __init__(self, cpu_id, machine):
        self.cpu_id = cpu_id
        self.machine = machine
        self.isa = machine.make_isa_state(cpu_id)
        self.stats = machine.stats.scope(f"cpu{cpu_id}")
        # Instruction counts live in plain attributes (they bump on every
        # executed op — even a bound counter's dict update is measurable)
        # and are flushed into the stats table when the engine run ends.
        self.icount = 0
        self.handler_icount = 0
        self._n_violations_received = self.stats.counter(
            "htm.violations_received")

        # --- thread/scheduler state (owned by the engine) -----------------
        self.frames = []          # generator stack: program, [dispatchers]
        self.dispatch_depth = 0
        self.send_value = None
        self.throw_exc = None
        #: Stalled operations parked per frame index (a dispatcher can
        #: stall independently of the program beneath it).
        self.parked = {}
        #: Pending op results of interrupted frames, restored when a
        #: dispatcher resumes them.
        self.saved_sends = {}
        #: (xvcurrent, xvaddr) of interrupted frames, saved across nested
        #: dispatch like any other interrupted register state.
        self.saved_viol = {}
        self.state = DONE
        self.resume_at = 0
        self.daemon = False
        self.wake_tokens = 0
        self.pending_abort = False
        self.result = None
        self.failure = None

        #: Slot for the software runtime's per-thread state.
        self.rt = None

        # --- interpreter hot path -----------------------------------------
        # The HTM and memory-model *objects* are fixed for the machine's
        # lifetime, so handlers bind them once; their methods are still
        # resolved per call, which keeps the instrument/fault seams (that
        # shadow e.g. ``htm.validate``) working.
        self._htm = machine.htm
        self._mem = machine.memmodel
        self._dispatch = {op_cls: MethodType(func, self)
                          for op_cls, func in _CORE_HANDLERS.items()}
        #: The public executor, held in a slot so instruments (the cycle
        #: profiler) can shadow it per-CPU and restore it exactly.
        self.execute = self._execute_step

    # ------------------------------------------------------------------
    # Program-facing op constructors (the "assembler")
    # ------------------------------------------------------------------

    def load(self, addr):
        op = _LOAD_CACHE.get(addr)
        if op is None:
            op = O.Load(addr)
            if len(_LOAD_CACHE) < _OP_CACHE_LIMIT:
                _LOAD_CACHE[addr] = op
        return op

    def store(self, addr, value):
        return O.Store(addr, value)

    def imld(self, addr):
        op = _IMLOAD_CACHE.get(addr)
        if op is None:
            op = O.ImLoad(addr)
            if len(_IMLOAD_CACHE) < _OP_CACHE_LIMIT:
                _IMLOAD_CACHE[addr] = op
        return op

    def imst(self, addr, value):
        return O.ImStore(addr, value)

    def imstid(self, addr, value):
        return O.ImStoreId(addr, value)

    def release(self, addr):
        return O.Release(addr)

    def alu(self, cycles=1):
        op = _ALU_CACHE.get(cycles)
        if op is None:
            op = O.Alu(cycles)
            if len(_ALU_CACHE) < _OP_CACHE_LIMIT:
                _ALU_CACHE[cycles] = op
        return op

    # ------------------------------------------------------------------
    # Introspection for software
    # ------------------------------------------------------------------

    def depth(self):
        """Current hardware nesting level (0 = non-transactional)."""
        return self.machine.htm.depth(self.cpu_id)

    def tx_is_open(self):
        """True if the current (innermost) transaction is open-nested."""
        state = self.machine.htm.states[self.cpu_id]
        return state.in_tx() and state.current().open

    def commit_publishes(self):
        """True if committing the current transaction writes shared memory
        (outermost or open-nested; False for closed-nested and for
        transactions subsumed by flattening)."""
        state = self.machine.htm.states[self.cpu_id]
        if not state.in_tx():
            return False
        if state.flatten_extra:
            return False
        return state.current().open or state.depth() == 1

    def xstatus(self):
        return self.machine.htm.xstatus(self.cpu_id)

    @property
    def instructions(self):
        return self.icount

    @property
    def handler_instructions(self):
        return self.handler_icount

    def flush_stats(self):
        """Publish the plain-attribute instruction counts to the stats
        table (idempotent; the engine calls it when a run ends)."""
        self.stats.set("instructions", self.icount)
        self.stats.set("handler_instructions", self.handler_icount)

    @property
    def now(self):
        return self.machine.now

    # ------------------------------------------------------------------
    # Hardware-side violation delivery
    # ------------------------------------------------------------------

    def deliver(self, violation):
        """Record a posted conflict in the violation registers and make
        sure the thread will notice it (wake it if descheduled)."""
        self.isa.post(violation.mask, violation.addr)
        self._n_violations_received.add()
        if self.state == WAITING:
            self.machine.wake(self.cpu_id)

    # ------------------------------------------------------------------
    # Op execution
    # ------------------------------------------------------------------

    def _execute_step(self, op, now):
        """Execute ``op`` at cycle ``now``; may raise CapacityAbort.

        This is the table-dispatched executor bound to :attr:`execute`.
        """
        handler = self._dispatch.get(op.__class__)
        if handler is None:
            raise SimulationError(
                f"cpu {self.cpu_id}: not an operation: {op!r}")
        outcome = handler(op, now)
        if not outcome.stall:
            count = op.cycles if isinstance(op, O.Alu) else 1
            self.icount += count
            if self.dispatch_depth:
                # Work done inside violation/abort dispatchers (the paper's
                # handler-management overhead, Section 7).
                self.handler_icount += count
        return outcome

    # --- per-op handlers (one dict lookup away from execute) ----------

    def _exec_load(self, op, now):
        action, value = self._htm.load(self.cpu_id, op.addr)
        if action == STALL:
            return _STALL
        if action == SELF_ABORT:
            self._self_abort(op.addr)
            return _STALL
        latency = self._mem.access(self.cpu_id, op.addr, False, now)
        return ExecOutcome(latency=latency, value=value)

    def _exec_store(self, op, now):
        action = self._htm.store(self.cpu_id, op.addr, op.value)
        if action == STALL:
            return _STALL
        if action == SELF_ABORT:
            self._self_abort(op.addr)
            return _STALL
        latency = self._mem.access(self.cpu_id, op.addr, True, now)
        return _UNIT if latency == 1 else latency_outcome(latency)

    def _exec_imload(self, op, now):
        value = self._htm.im_load(self.cpu_id, op.addr)
        latency = self._mem.access(self.cpu_id, op.addr, False, now)
        return ExecOutcome(latency=latency, value=value)

    def _exec_imstore(self, op, now):
        self._htm.im_store(self.cpu_id, op.addr, op.value)
        latency = self._mem.access(self.cpu_id, op.addr, True, now)
        return _UNIT if latency == 1 else latency_outcome(latency)

    def _exec_imstoreid(self, op, now):
        self._htm.im_store_id(self.cpu_id, op.addr, op.value)
        latency = self._mem.access(self.cpu_id, op.addr, True, now)
        return _UNIT if latency == 1 else latency_outcome(latency)

    def _exec_release(self, op, now):
        return ExecOutcome(value=self._htm.release(self.cpu_id, op.addr))

    def _exec_alu(self, op, now):
        cycles = op.cycles
        return _UNIT if cycles <= 1 else latency_outcome(cycles)

    def _exec_xbegin(self, op, now):
        return ExecOutcome(value=self._htm.begin(self.cpu_id, op.open, now))

    def _exec_xvalidate(self, op, now):
        publishing = self.commit_publishes()
        if not self._htm.validate(self.cpu_id):
            return _STALL
        latency = 1
        if publishing and self.machine.config.detection == "lazy":
            # Validation announces the write-set on the bus so other
            # validators can check against it.
            latency = self._mem.arbitrate_commit(now)
        return latency_outcome(latency)

    def _exec_xcommit(self, op, now):
        committed_level = self.depth()
        result = self._htm.commit(self.cpu_id)
        if result.kind != "flattened":
            self.isa.retire_level(
                committed_level, merged=result.kind == "closed")
        if result.kind in ("outer", "open"):
            latency = self._mem.commit_broadcast(
                self.cpu_id, result.written_words, now)
            if self.machine.config.double_buffering:
                # §6.3.3: the nesting hardware's spare tracking slots
                # let the CPU run its next transaction while the
                # broadcast drains; the bus occupancy (charged above,
                # visible to everyone else) is hidden from this CPU.
                self.stats.add("htm.hidden_commit_cycles", latency - 1)
                latency = 1
        else:
            latency = 1
        self.stats.add("htm.commit_cycles", latency)
        return ExecOutcome(latency=latency, value=result.kind)

    def _exec_xabort(self, op, now):
        if self.depth() < 1:
            raise IsaError("xabort outside a transaction")
        self.isa.xabort_code = op.code
        self.isa.viol_reporting = False
        self.pending_abort = True
        return _UNIT

    def _exec_xrwsetclear(self, op, now):
        target = op.level if op.level is not None else self.depth()
        work = self.do_rollback(target)
        latency = 1 + work * self.machine.config.undo_cycles_per_entry
        self.stats.add("htm.rollback_cycles", latency)
        return latency_outcome(latency)

    def _exec_xregrestore(self, op, now):
        # The architectural restore; the engine performs the actual
        # frame unwinding when the dispatcher returns its outcome.
        return _UNIT

    def _exec_xvret(self, op, now):
        self.isa.viol_reporting = True
        return _UNIT

    def _exec_xenviolrep(self, op, now):
        self.isa.viol_reporting = True
        return _UNIT

    def _exec_xvclear(self, op, now):
        self.isa.clear_current(op.mask)
        return _UNIT

    def _exec_yieldcpu(self, op, now):
        if self.wake_tokens > 0:
            self.wake_tokens -= 1
            return _UNIT
        return _DESCHEDULE

    def _exec_wake(self, op, now):
        self.machine.wake(op.cpu_id)
        return _UNIT

    def _exec_fence(self, op, now):
        return _UNIT

    def _exec_serialacquire(self, op, now):
        return ExecOutcome(value=self._htm.try_acquire_serial(self.cpu_id))

    def _exec_serialrelease(self, op, now):
        self._htm.release_serial(self.cpu_id)
        return _UNIT

    # ------------------------------------------------------------------

    def do_rollback(self, target_level):
        """Hardware rollback to ``target_level``: discard speculative
        state, clear the violation masks for the cleared levels, and
        restart the target as a fresh transaction."""
        work = self.machine.htm.rollback_to(
            self.cpu_id, target_level, now=self.machine.now)
        self.isa.clear_masks_at_and_above(target_level)
        return work

    def _self_abort(self, addr):
        """Eager deadlock avoidance: the requester violates itself.

        The mask covers only the levels *above* the deepest VALIDATED
        one: a validated transaction must never be violated (paper
        §6.1), and this path posts directly into the violation
        registers, bypassing the detector's validated-set check.  In
        practice the validated levels are the ones a commit handler is
        flushing while its open-nested transaction (the only level that
        can still conflict) restarts around them.
        """
        level = max(1, self.depth())
        mask = (1 << level) - 1
        state = self.machine.htm.states[self.cpu_id]
        for lvl in range(len(state.levels), 0, -1):
            if state.levels[lvl - 1].status == VALIDATED:
                mask &= ~((1 << lvl) - 1)
                break
        if not mask:
            # Unreachable in practice — the conflicting access can only
            # issue from an ACTIVE innermost level — but never post an
            # empty mask.
            mask = 1 << (level - 1)
        self.isa.post(mask, addr)
        self.stats.add("htm.self_aborts")


#: Op type -> unbound handler, covering the whole core vocabulary.  The
#: per-CPU dispatch table binds these once in ``Cpu.__init__``.
_CORE_HANDLERS = {
    O.Load: Cpu._exec_load,
    O.Store: Cpu._exec_store,
    O.ImLoad: Cpu._exec_imload,
    O.ImStore: Cpu._exec_imstore,
    O.ImStoreId: Cpu._exec_imstoreid,
    O.Release: Cpu._exec_release,
    O.Alu: Cpu._exec_alu,
    O.XBegin: Cpu._exec_xbegin,
    O.XValidate: Cpu._exec_xvalidate,
    O.XCommit: Cpu._exec_xcommit,
    O.XAbort: Cpu._exec_xabort,
    O.XRwSetClear: Cpu._exec_xrwsetclear,
    O.XRegRestore: Cpu._exec_xregrestore,
    O.XVRet: Cpu._exec_xvret,
    O.XEnViolRep: Cpu._exec_xenviolrep,
    O.XVClear: Cpu._exec_xvclear,
    O.YieldCpu: Cpu._exec_yieldcpu,
    O.Wake: Cpu._exec_wake,
    O.Fence: Cpu._exec_fence,
    O.SerialAcquire: Cpu._exec_serialacquire,
    O.SerialRelease: Cpu._exec_serialrelease,
}

# A new op added to the vocabulary without a handler must fail at import
# time, not as a mid-simulation dispatch miss.
_MISSING_HANDLERS = set(O.ALL_OPS) - set(_CORE_HANDLERS)
if _MISSING_HANDLERS:   # pragma: no cover - import-time safety net
    raise ImportError(
        f"ops without dispatch handlers: {sorted(c.__name__ for c in _MISSING_HANDLERS)}")
