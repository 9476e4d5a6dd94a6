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

Install either before the machine runs and before any instrument
attaches (instruments capture the executor and the violation sink).
"""

from __future__ import annotations

from types import MethodType

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
