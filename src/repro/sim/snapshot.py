"""Deep machine snapshot/restore: resume a run mid-schedule.

The model checker re-executes every schedule prefix from cycle 0
(VeriSoft-style stateless search).  This module adds the CHESS-style
alternative: capture the whole machine at a step boundary and later
*resume* from that point, so a child schedule that shares a long prefix
with its parent skips the replay.

Capturing the data plane is easy — every component exposes a
``snapshot_state()``/``restore_state()`` pair.  The hard part is the
*control plane*: workloads, handlers, and dispatchers are Python
generators, which cannot be copied or pickled.  Restore therefore
rebuilds them by **ghost replay**:

1. Reset the target machine to pristine and re-run the original program
   setup (same program, same seed).  Setup only *creates* generators —
   nothing runs until the engine's first ``send`` — so this recreates
   the frame stacks' level 0 with virgin host state (closures, locals,
   per-program RNGs).
2. Swap ``machine.htm`` for a :class:`GhostHtm` and re-feed the **step
   journal** — the per-step record of every engine↔generator
   interaction the original run made (recorded by the engine when
   :meth:`Machine.enable_journal` is on).  Host code genuinely
   re-executes, rebuilding its closures and runtime bookkeeping, but the
   ops it yields are discarded: every value it *receives* (send values,
   thrown exceptions, ISA registers, HTM status) comes from the journal,
   so it retraces the original path exactly without touching the data
   plane.
3. Overwrite the data plane (memory, caches, HTM, ISA registers, CPU
   scheduling state, stats) from the snapshot and self-check that the
   rebuilt frame stacks match the captured frame counts.

A resumed run is then bit-for-bit identical to the original straight
line — cycles, stats, results — which ``tests/test_snapshot.py`` pins
and the explore layer enforces differentially.
"""

from __future__ import annotations

from repro.common.errors import IsaError, ReproError, SimulationError, TxRollback
from repro.isa.context import DONE
from repro.isa.dispatch import (
    default_abort_dispatcher,
    default_violation_dispatcher,
)
from repro.isa.state import IsaState


class SnapshotError(ReproError):
    """A snapshot could not be taken or faithfully restored.

    Callers treat this as "fall back to stateless replay", never as a
    verdict about the program under test.
    """


# Restoring this into any ``IsaState`` resets every mutable register.
_PRISTINE_ISA = IsaState(0).snapshot_state()

# Feed tag singletons.  A step's feed is what the engine gave the top
# frame: a parked-op re-issue (no generator interaction), a sent value,
# or a thrown exception.
_FEED_PARKED = ("p",)


# ----------------------------------------------------------------------
# The step journal
# ----------------------------------------------------------------------


class StepJournal:
    """Per-step log of engine↔generator interactions.

    One entry per engine step::

        (cpu_id, now, sync, push, feed, post)

    * ``sync`` — ISA registers host code can observe, captured at the
      top of ``_step``: ``(viol_reporting, xvcurrent, xvaddr,
      xabort_code, xtcbptr_top)``.  They are re-applied before the feed
      so the resumed generator sees exactly what it saw originally.
    * ``push`` — ``None``, or ``(kind, code_id, xvcurrent, xvaddr,
      xvpc)`` when the step pushed a dispatcher frame.  The register
      values are *post*-``pop_next`` (the ghost cannot re-run the pop:
      its violation queue drifts).
    * ``feed`` — ``("p",)`` parked re-issue, ``("s", value)`` send, or
      ``("t", exc)`` throw.
    * ``post`` — ``(levels, flatten_extra, unwound)``: the CPU's HTM
      nesting view after the step (``levels`` is a tuple of
      ``(txid, open, status)``) plus whether a capacity abort unwound
      the dispatcher stack.
    """

    __slots__ = (
        "entries", "_cpu", "_now", "_sync", "_push", "_feed", "_unwound")

    def __init__(self):
        self.entries = []
        self._cpu = 0
        self._now = 0
        self._sync = None
        self._push = None
        self._feed = _FEED_PARKED
        self._unwound = False

    def begin_step(self, cpu, now):
        isa = cpu.isa
        self._cpu = cpu.cpu_id
        self._now = now
        self._sync = (isa.viol_reporting, isa.xvcurrent, isa.xvaddr,
                      isa.xabort_code, isa.xtcbptr_top)
        self._push = None
        self._feed = _FEED_PARKED
        self._unwound = False

    def stage_push(self, kind, code_id, xvcurrent, xvaddr, xvpc):
        self._push = (kind, code_id, xvcurrent, xvaddr, xvpc)

    def stage_feed(self, feed):
        self._feed = feed

    def stage_unwound(self):
        self._unwound = True

    def close_step(self, machine, cpu):
        state = machine.htm.states[cpu.cpu_id]
        post = (
            tuple((info.txid, info.open, info.status)
                  for info in state.levels),
            state.flatten_extra,
            self._unwound,
        )
        self.entries.append(
            (self._cpu, self._now, self._sync, self._push, self._feed,
             post))


# ----------------------------------------------------------------------
# The ghost HTM
# ----------------------------------------------------------------------


class _GhostLevel:
    """Mirror of ``LevelInfo`` limited to what host code reads."""

    __slots__ = ("txid", "open", "status")

    def __init__(self, txid, open_, status):
        self.txid = txid
        self.open = open_
        self.status = status


class _GhostTxState:
    """Mirror of ``TxState``'s introspection surface."""

    __slots__ = ("cpu_id", "levels", "flatten_extra")

    def __init__(self, cpu_id):
        self.cpu_id = cpu_id
        self.levels = []
        self.flatten_extra = 0

    def depth(self):
        return len(self.levels)

    def in_tx(self):
        return bool(self.levels)

    def current(self):
        if not self.levels:
            raise IsaError(f"cpu {self.cpu_id}: no active transaction")
        return self.levels[-1]

    def is_validated(self):
        return any(info.status == "validated" for info in self.levels)


class GhostHtm:
    """Read-only HTM stand-in wired from journal ``post`` records.

    During ghost replay, host code may introspect transactional state
    (``t.depth()``, ``t.xstatus()``, the violation dispatcher's level
    scan) — but must never *operate* on it.  Operations only happen via
    yielded ops, which the ghost discards, so this class implements
    exactly the introspection surface and nothing else: any unexpected
    call fails loudly as an ``AttributeError`` → :class:`SnapshotError`
    at the caller.
    """

    def __init__(self, n_cpus):
        self.states = [_GhostTxState(cpu_id) for cpu_id in range(n_cpus)]

    def set_state(self, cpu_id, levels, flatten_extra):
        state = self.states[cpu_id]
        state.levels = [
            _GhostLevel(txid, open_, status)
            for txid, open_, status in levels
        ]
        state.flatten_extra = flatten_extra

    def depth(self, cpu_id):
        return len(self.states[cpu_id].levels)

    def xstatus(self, cpu_id):
        state = self.states[cpu_id]
        if not state.levels:
            return {"txid": 0, "type": None, "status": None, "level": 0}
        info = state.levels[-1]
        return {
            "txid": info.txid,
            "type": "open" if info.open else "closed",
            "status": info.status,
            "level": len(state.levels) + state.flatten_extra,
        }


# ----------------------------------------------------------------------
# The snapshot
# ----------------------------------------------------------------------


class MachineSnapshot:
    """Everything needed to rebuild a machine mid-run.

    All captured containers are copies; a snapshot can be restored any
    number of times, onto any machine with the same configuration.
    """

    __slots__ = (
        "n_cpus", "now", "live_programs", "capacity_retries", "journal",
        "journal_len", "cpus", "isa", "stats", "memory", "memmodel",
        "htm", "policy")

    def steps(self):
        """Engine steps completed at capture time."""
        return self.journal_len


def capture(machine):
    """Capture ``machine`` at a step boundary.

    Must be called between engine steps (e.g. from a scheduling
    policy's ``choose``, before it returns the step's pick) of a run
    started after :meth:`Machine.enable_journal`.
    """
    journal = machine._journal
    if journal is None:
        raise SnapshotError(
            "snapshot requires enable_journal() before the run")
    snap = MachineSnapshot()
    snap.n_cpus = machine.config.n_cpus
    snap.now = machine.now
    snap.live_programs = machine._live_programs
    snap.capacity_retries = list(machine._capacity_retries)
    # Zero-copy view: the journal is append-only and its entries are
    # immutable tuples, so sharing the live list plus a length bound is
    # exact — and keeps capture O(1) in the journal instead of O(steps)
    # (the explorer captures at every branch step).
    snap.journal = journal.entries
    snap.journal_len = len(journal.entries)
    snap.cpus = [
        (cpu.state, cpu.resume_at, cpu.daemon, cpu.wake_tokens,
         cpu.pending_abort, cpu.icount, cpu.handler_icount,
         cpu.dispatch_depth, cpu.send_value, cpu.throw_exc, cpu.result,
         cpu.failure, dict(cpu.parked), dict(cpu.saved_sends),
         dict(cpu.saved_viol), len(cpu.frames))
        for cpu in machine.cpus
    ]
    snap.isa = [cpu.isa.snapshot_state() for cpu in machine.cpus]
    snap.stats = machine.stats.snapshot_state()
    snap.memory = machine.memory.snapshot()
    snap.memmodel = machine.memmodel.snapshot_state()
    snap.htm = machine.htm.snapshot_state()
    policy_snapshot = getattr(machine.policy, "snapshot_state", None)
    snap.policy = (
        policy_snapshot() if policy_snapshot is not None else None)
    return snap


# ----------------------------------------------------------------------
# Restore
# ----------------------------------------------------------------------


def restore(machine, snapshot, setup_fn, restore_policy=True):
    """Rebuild ``snapshot`` onto ``machine`` so ``run()`` resumes it.

    ``setup_fn(machine)`` must re-run the *original* program setup —
    same program, same seed — and return the program object.  With
    ``restore_policy`` false the captured scheduling-policy state is not
    applied; the caller owns ``machine.policy`` (the explore layer
    installs each child's own controlled policy).

    Raises :class:`SnapshotError` when the ghost replay drifts from the
    journal; the machine is then in an undefined state and must be reset
    before reuse (the explore layer simply falls back to a stateless
    re-execution on a pooled machine).
    """
    if machine.config.n_cpus != snapshot.n_cpus:
        raise SnapshotError(
            f"snapshot has {snapshot.n_cpus} cpus, machine has "
            f"{machine.config.n_cpus}")
    reset_machine(machine)
    program = setup_fn(machine)
    _ghost_replay(machine, snapshot)
    _overwrite_data_plane(machine, snapshot, restore_policy)
    return program


def reset_machine(machine):
    """Return a (possibly used) machine to its just-constructed state.

    Only control-plane state is reset; the data plane (memory, caches,
    HTM, stats) is overwritten wholesale by
    :func:`_overwrite_data_plane` after the ghost replay, so scrubbing
    it here would be wasted work — except the stats and memory, which
    program setup *appends* to and therefore must start empty.
    """
    machine.codereg.reset()
    for cpu in machine.cpus:
        for frame in reversed(cpu.frames):
            try:
                frame.close()
            except Exception:  # noqa: BLE001 - cleanup must not fail
                pass
        cpu.frames = []
        cpu.dispatch_depth = 0
        cpu.parked.clear()
        cpu.saved_sends.clear()
        cpu.saved_viol.clear()
        cpu.send_value = None
        cpu.throw_exc = None
        cpu.pending_abort = False
        cpu.wake_tokens = 0
        cpu.state = DONE
        cpu.resume_at = 0
        cpu.daemon = False
        cpu.result = None
        cpu.failure = None
        cpu.icount = 0
        cpu.handler_icount = 0
        cpu.rt = None
        cpu.isa.restore_state(_PRISTINE_ISA)
    machine.now = 0
    machine._live_programs = 0
    machine._ready = []
    machine.fault_hooks = None
    machine._capacity_retries = [0] * machine.config.n_cpus
    machine._steps_base = 0
    machine._journal = StepJournal()
    machine.stats.restore_state({})
    machine.memory.restore({})


def _ghost_replay(machine, snapshot):
    """Re-feed the journal through freshly-built generator stacks.

    ``machine.htm`` is swapped for a :class:`GhostHtm` for the duration,
    so host introspection sees the journaled nesting state and no real
    transactional machinery runs.  The yielded ops are discarded — their
    effects are already inside the snapshot's data plane.
    """
    ghost = GhostHtm(machine.config.n_cpus)
    real_htm = machine.htm
    machine.htm = ghost
    try:
        for index in range(snapshot.journal_len):
            cpu_id, now, sync, push, feed, post = snapshot.journal[index]
            cpu = machine.cpus[cpu_id]
            isa = cpu.isa
            machine.now = now
            (isa.viol_reporting, isa.xvcurrent, isa.xvaddr,
             isa.xabort_code, isa.xtcbptr_top) = sync
            if push is not None:
                kind, code_id, xvcurrent, xvaddr, xvpc = push
                isa.xvpc = xvpc
                isa.viol_reporting = False
                isa.xvcurrent = xvcurrent
                isa.xvaddr = xvaddr
                if code_id:
                    try:
                        factory = machine.codereg.get(code_id)
                    except SimulationError as exc:
                        raise SnapshotError(
                            f"ghost replay: handler registration "
                            f"drifted: {exc}") from None
                elif kind == "violation":
                    factory = default_violation_dispatcher
                else:
                    factory = default_abort_dispatcher
                cpu.frames.append(factory(cpu))
                cpu.dispatch_depth = len(cpu.frames) - 1
            tag = feed[0]
            if tag != "p":
                if not cpu.frames:
                    raise SnapshotError(
                        f"ghost replay: cpu {cpu_id} has no frame to "
                        f"feed at step {index}")
                frame = cpu.frames[-1]
                try:
                    if tag == "s":
                        frame.send(feed[1])
                    else:
                        frame.throw(feed[1])
                except StopIteration:
                    cpu.frames.pop()
                except TxRollback:
                    # Mirrors _rollback_escaped: drop the frame the
                    # rollback escaped (the generator is already
                    # exhausted by the propagation).
                    cpu.frames.pop()
                except Exception:  # noqa: BLE001 - mirrors _kill
                    for open_frame in reversed(cpu.frames):
                        try:
                            open_frame.close()
                        except Exception:  # noqa: BLE001
                            pass
                    cpu.frames = []
            levels, flatten_extra, unwound = post
            if unwound:
                # Mirrors _handle_capacity_abort: dispatcher frames are
                # dropped without close, the program frame survives.
                del cpu.frames[1:]
            cpu.dispatch_depth = max(0, len(cpu.frames) - 1)
            ghost.set_state(cpu_id, levels, flatten_extra)
    except AttributeError as exc:
        # Host code touched machinery the ghost does not model.
        raise SnapshotError(f"ghost replay: {exc}") from exc
    finally:
        machine.htm = real_htm
    for cpu, saved in zip(machine.cpus, snapshot.cpus):
        if len(cpu.frames) != saved[-1]:
            raise SnapshotError(
                f"ghost replay drift: cpu {cpu.cpu_id} rebuilt "
                f"{len(cpu.frames)} frames, snapshot recorded "
                f"{saved[-1]}")


def _overwrite_data_plane(machine, snapshot, restore_policy):
    machine.now = snapshot.now
    machine._live_programs = snapshot.live_programs
    machine._capacity_retries = list(snapshot.capacity_retries)
    machine.stats.restore_state(snapshot.stats)
    machine.memory.restore(snapshot.memory)
    machine.memmodel.restore_state(snapshot.memmodel)
    machine.htm.restore_state(snapshot.htm)
    for cpu, saved, isa_saved in zip(
            machine.cpus, snapshot.cpus, snapshot.isa):
        (cpu.state, cpu.resume_at, cpu.daemon, cpu.wake_tokens,
         cpu.pending_abort, cpu.icount, cpu.handler_icount,
         cpu.dispatch_depth, cpu.send_value, cpu.throw_exc, cpu.result,
         cpu.failure, parked, saved_sends, saved_viol, _) = saved
        cpu.parked.clear()
        cpu.parked.update(parked)
        cpu.saved_sends.clear()
        cpu.saved_sends.update(saved_sends)
        cpu.saved_viol.clear()
        cpu.saved_viol.update(saved_viol)
        cpu.isa.restore_state(isa_saved)
    if restore_policy and snapshot.policy is not None:
        restore_state = getattr(machine.policy, "restore_state", None)
        if restore_state is not None:
            restore_state(snapshot.policy)
    journal = StepJournal()
    journal.entries = snapshot.journal[:snapshot.journal_len]
    machine._journal = journal
    # Resumed runs report engine.steps as prefix + own steps, exactly
    # like the straight line would.
    machine._steps_base = snapshot.journal_len
