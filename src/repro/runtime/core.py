"""The transactional software runtime (the paper's "software conventions").

The hardware gives us the Table 2 instructions and the handler-dispatch
registers; everything else in Sections 4.2-4.6 — handler stacks, TCB
frame management, the dispatcher code at ``xvhcode``/``xahcode``, commit
handler execution between ``xvalidate`` and ``xcommit`` — is software,
implemented here as simulated code (generators yielding operations, every
one of which costs instructions and cycles on the machine).

Instruction budgets are calibrated to the paper's Section 7 numbers
(:mod:`repro.runtime.overheads`): 6 to start a transaction, 10 to commit
and 6 to roll back without handlers, 9 to register a no-arg handler.

Program-level API (all generator functions used with ``yield from``):

* ``atomic(t, body, *args)`` — run ``body`` as a (closed-nested)
  transaction with automatic restart on violation.
* ``atomic_open(t, body, *args)`` — open-nested transaction.
* ``register_commit_handler / register_violation_handler /
  register_abort_handler`` — paper §4.2-4.4.
* ``abort(t, code)`` — ``xabort``; by default surfaces as
  :class:`~repro.common.errors.TxAborted` outside the atomic block.

Handler stack entry layout (words): ``[code_id, nargs, arg..., nargs]``
— the leading ``nargs`` supports the forward walk used for commit
handlers (registration order, §4.2), the trailing copy supports the
backward walk used for violation/abort handlers (reverse order, §4.3).
"""

from __future__ import annotations

from repro.common.errors import IsaError, TxAborted, TxRollback, TxSignal
from repro.common.params import WORD_SIZE
from repro.htm.system import ACTIVE
from repro.isa import tcb
from repro.isa.dispatch import HandlerOutcome
from repro.isa.state import lowest_level_in_mask
from repro.runtime.rtstate import RtState
from repro.sim import ops as O

#: Return this from a violation/abort handler to resume the interrupted
#: transaction instead of rolling back (the paper's "ignore violation /
#: continue" path, §4.3).
RESUME = "resume"

#: Abort code used by the condsync runtime's ``retry``.
RETRY_CODE = "__retry__"


class Runtime:
    """Machine-wide software runtime; holds the dispatcher code ids."""

    def __init__(self, machine):
        self.machine = machine
        self._vh_id = machine.codereg.register(self._violation_dispatcher)
        self._ah_id = machine.codereg.register(self._abort_dispatcher)
        # Commit handlers have no hardware dispatch; xchcode names the walk
        # code purely so Table 1 state is fully populated.
        self._ch_id = machine.codereg.register(self._commit_walk_marker)

    # ------------------------------------------------------------------
    # Thread bring-up
    # ------------------------------------------------------------------

    def spawn(self, program, *args, cpu_id=None, daemon=False):
        """Run ``program(t, *args)`` as a thread under this runtime."""
        def factory(t):
            return self._thread_main(t, program, args)

        return self.machine.add_thread(factory, cpu_id=cpu_id, daemon=daemon)

    def _thread_main(self, t, program, args):
        t.rt = RtState(self, t)
        t.isa.xvhcode = self._vh_id
        t.isa.xahcode = self._ah_id
        t.isa.xchcode = self._ch_id
        t.isa.xtcbptr_base = tcb.tcb_stack_base(t.cpu_id)
        t.isa.xtcbptr_top = t.isa.xtcbptr_base
        yield t.alu()  # thread initialization
        result = yield O.Call(program(t, *args))
        return result

    # ------------------------------------------------------------------
    # Transaction begin / commit (calibrated sequences)
    # ------------------------------------------------------------------

    def begin_tx(self, t, open_=False):
        """TCB allocation + ``xbegin``: 6 instructions (paper §7)."""
        rt = t.rt
        old_depth = t.depth()
        frame = tcb.frame_addr(t.cpu_id, old_depth + 1)
        # Spill the current handler-stack tops into the new frame, like
        # saving registers in an activation record.
        yield t.imstid(frame + tcb.CH_TOP * WORD_SIZE, rt.ch_top)
        yield t.imstid(frame + tcb.VH_TOP * WORD_SIZE, rt.vh_top)
        yield t.imstid(frame + tcb.AH_TOP * WORD_SIZE, rt.ah_top)
        yield t.alu()  # bump xtcbptr_top
        t.isa.xtcbptr_top = frame
        # Mirror the TCB spill in the Python-side snapshot *before*
        # xbegin retires: a violation can be delivered on the very next
        # step after xbegin, before this generator resumes, and the
        # dispatcher must find the new level's bases (the architectural
        # copy already sits in the frame written above; nothing can
        # register handlers in that window, so the tops are still
        # current).
        rt.snapshot_bases(old_depth + 1)
        level = yield O.XBegin(open=open_)
        if level != old_depth + 1:
            # Flattening subsumed this transaction; the real outer
            # transaction's snapshot stays authoritative.
            rt.bases.pop(old_depth + 1, None)
        yield t.alu()  # status-word bookkeeping
        return level

    def commit_tx(self, t):
        """Two-phase commit: ``xvalidate``, commit handlers, ``xcommit``.

        10 instructions when no handlers are registered (paper §7).
        """
        rt = t.rt
        level = t.depth()
        if level < 1:
            raise IsaError("commit_tx outside a transaction")
        flattened = t.xstatus()["level"] != level
        publishes = t.commit_publishes()
        frame = tcb.frame_addr(t.cpu_id, level)
        yield O.XValidate()
        base = yield t.imld(frame + tcb.CH_TOP * WORD_SIZE)
        yield t.alu()  # any commit handlers?
        if publishes:
            yield from self._run_commit_handlers(t, base)
        yield O.XCommit()
        yield t.alu()  # pop xtcbptr_top
        t.isa.xtcbptr_top = tcb.frame_addr(t.cpu_id, t.depth())
        if flattened:
            # Subsumed inner commit: handlers stay registered for the real
            # outer commit; nothing to restore.
            yield t.alu(5)
        elif publishes:
            # Outermost or open-nested commit: commit handlers were
            # consumed; violation/abort handlers are discarded (§4.6).
            rt.reset_to(level)
            yield t.alu(5)  # restore the three tops, status, link
        else:
            # Closed-nested commit: the parent inherits our handler
            # entries simply by keeping the tops (the paper's trivial
            # top-pointer copy, §4.6).
            rt.inherit_to_parent(level)
            yield t.alu(5)

    def _run_commit_handlers(self, t, base):
        """Walk [base, top) forward, running handlers in registration
        order (§4.2).  Handlers may register more commit handlers; the
        walk picks them up (the top is re-read every iteration)."""
        rt = t.rt
        ptr = base
        while ptr < rt.ch_top:
            code = yield t.imld(ptr)
            nargs = yield t.imld(ptr + WORD_SIZE)
            args = []
            for i in range(nargs):
                args.append((yield t.imld(ptr + (2 + i) * WORD_SIZE)))
            ptr += (nargs + 3) * WORD_SIZE
            handler = self.machine.codereg.get(code)
            t.stats.add("rt.commit_handlers_run")
            yield from handler(t, *args)

    # ------------------------------------------------------------------
    # The atomic API
    # ------------------------------------------------------------------

    def atomic(self, t, body, *args, open_=False, abort_policy=None):
        """Run ``body(t, *args)`` transactionally; restart on violation.

        ``abort_policy(code)`` decides what a voluntary ``xabort`` means:
        return ``"restart"`` to re-execute, ``"park"`` to deschedule until
        woken and then re-execute (condsync ``retry``), or ``"raise"``
        (default) to terminate the transaction and raise
        :class:`TxAborted` to the surrounding code.

        The body runs as a :class:`~repro.sim.ops.Call`, on the engine's
        call stack rather than under a ``yield from``: each of its steps
        resumes the body's generator directly instead of every
        ``atomic`` and body frame of the nesting chain.  The semantics
        are those of ``yield from``: a rollback or exception the body
        raises arrives here at the ``Call``.
        """
        old_depth = t.depth()
        hw_level = None
        subsumed = False
        # The retry loop is a small state machine so that *every* yield —
        # including begin_tx, the loser-side pause, the condsync park,
        # and the terminating commit of a finished (empty, restarted)
        # transaction — sits inside the try-block.  A violation delivered
        # at a yield outside it could not be caught by the same try and
        # would escape the atomic wrapper entirely (a bug the chaos
        # matrix found: a spurious violation landing in the retry pause
        # killed the program).
        mode = "begin"         # begin | run | pause | park | finish
        finish = None          # pending terminal: ("raise", exc) after
        #                        the restarted empty transaction commits
        retries = 0            # consecutive rollbacks (scales the pause)
        while True:
            try:
                if mode == "begin":
                    yield from self.begin_tx(t, open_)
                    hw_level = t.depth()
                    subsumed = t.xstatus()["level"] != hw_level
                    mode = "run"
                if mode == "park":
                    mode = "run"
                    yield O.YieldCpu()
                    t.stats.add("rt.parks")
                if mode == "pause":
                    # Loser-side pause: give the winning requester's
                    # retried access time to complete before this
                    # transaction re-acquires the contended lines
                    # (prevents starvation of the oldest transaction
                    # under 3+-way conflicts).  Scaled by the
                    # consecutive-retry count: with a constant pause,
                    # three-way conflicts whose compensation walks all
                    # touch the allocator metadata can re-collide in
                    # lockstep forever; growing pauses separate the
                    # contenders deterministically so one of them gets
                    # a long enough quiet window to finish its walk.
                    # Ordinary contention (a handful of retries) keeps
                    # the constant pause; the scaling is an escape
                    # hatch, not a tax on the common case.
                    mode = "run"
                    scale = 1 if retries < 16 else min(retries, 128)
                    yield O.Alu((4 + 2 * t.cpu_id) * scale)
                if mode == "run":
                    result = yield O.Call(body(t, *args))
                    yield from self.commit_tx(t)
                    return result
                # mode == "finish": terminate the restarted (empty)
                # hardware transaction cleanly, then surface the pending
                # exception outside the loop.
                yield from self.commit_tx(t)
                break
            except TxRollback as rollback:
                if hw_level is None:
                    # Violated inside begin_tx.  Rollbacks of the levels
                    # that surrounded us belong to outer wrappers; our
                    # own just-opened level (the only deeper target —
                    # xbegin must already have run for it to exist) was
                    # restarted fresh by the hardware, so adopt it and
                    # retry the body.  Its begin bookkeeping already ran:
                    # the only yield after xbegin follows the snapshot.
                    if rollback.level <= old_depth:
                        raise
                    hw_level = rollback.level
                if subsumed or rollback.level < hw_level:
                    raise
                if mode == "finish":
                    continue  # violated mid-terminate: re-terminate
                if rollback.reason == "capacity":
                    # Retrying cannot help: the footprint exceeds the
                    # hardware.  Terminate and surface the abort so
                    # software can fall back (the virtualization hook,
                    # paper §6.3.3).
                    mode, finish = "finish", rollback
                    continue
                t.stats.add("rt.retries")
                retries += 1
                if rollback.reason != "abort":
                    mode = ("pause"
                            if self.machine.config.detection == "eager"
                            else "run")
                    continue
                decision = (abort_policy(rollback.code)
                            if abort_policy else "raise")
                if decision == "restart":
                    mode = "run"
                    continue
                if decision == "park":
                    mode = "park"
                    continue
                mode, finish = "finish", TxAborted(rollback.code)
                continue
            except TxSignal:
                raise  # other architectural signals go to outer wrappers
            except GeneratorExit:
                raise  # generator teardown (daemon threads at shutdown)
            except BaseException:
                # A runtime exception inside the transaction (paper §3:
                # "real programs ... cause exceptions, often hidden within
                # libraries").  The transaction aborts — running its abort
                # handlers (compensation) and discarding its speculative
                # state — and the exception then propagates to the code
                # outside the atomic block, unwinding level by level.
                if not subsumed:
                    yield from self._unwind_for_exception(t)
                t.stats.add("rt.exception_aborts")
                raise
        if isinstance(finish, TxAborted):
            raise finish from None
        raise finish

    def _unwind_for_exception(self, t):
        """Abort the current transaction because a runtime exception is
        unwinding through it: abort handlers (compensation) run, the
        speculative state is discarded, and the hardware transaction
        terminates so the exception can continue outward."""
        try:
            yield O.XAbort("__exception__")
        except TxRollback:
            pass
        yield from self.commit_tx(t)

    def atomic_open(self, t, body, *args):
        """Open-nested transaction (``xbegin_open``), paper §4.5.

        Inside a violation/abort handler this re-enables violation
        reporting first (paper footnote 1), so conflicts on the open
        transaction itself are delivered.
        """
        if t.dispatch_depth and not t.isa.viol_reporting:
            yield O.XEnViolRep()
        result = yield from self.atomic(t, body, *args, open_=True)
        return result

    def try_atomic(self, t, body, *args, alternative=None):
        """The ``tryatomic`` construct (X10, paper §5): run ``body``
        atomically; if it ends in a voluntary abort, run ``alternative``
        (also atomically) instead.

        Returns ``(committed, result)``: ``(True, body result)`` on
        success, ``(False, alternative result)`` — or ``(False, abort
        code)`` when no alternative is given.
        """
        try:
            result = yield from self.atomic(t, body, *args)
            return True, result
        except TxAborted as aborted:
            if alternative is None:
                return False, aborted.code
            result = yield from self.atomic(t, alternative, *args)
            return False, result

    def atomic_with_fallback(self, t, body, *args):
        """``atomic`` with the virtualization fallback (DESIGN.md §6b):
        if the transaction overflows the hardware (CapacityAbort), the
        body re-executes under machine-wide serial mode with plain
        (unbounded) memory accesses — other CPUs keep computing
        speculatively but cannot commit, and strong atomicity violates
        any of them that read the serial writer's data.

        Requires write-buffer versioning (an undo-log machine exposes
        other transactions' in-place speculative writes to the serial
        reader).  Bodies that register handlers are not eligible —
        handler registration needs an active transaction.
        """
        from repro.common.errors import ConfigError
        from repro.common.params import WRITE_BUFFER

        if self.machine.config.versioning != WRITE_BUFFER:
            raise ConfigError(
                "the serial fallback requires write-buffer versioning")
        try:
            result = yield from self.atomic(t, body, *args)
            return result
        except TxRollback as rollback:
            if rollback.reason != "capacity":
                raise
        t.stats.add("rt.serial_fallbacks")
        while not (yield O.SerialAcquire()):
            yield t.alu(20)
        try:
            result = yield from body(t, *args)
        finally:
            yield O.SerialRelease()
        return result

    def abort(self, t, code=None):
        """Voluntary abort (``xabort``); never returns normally."""
        yield O.XAbort(code)
        raise AssertionError("xabort returned")  # pragma: no cover

    def retry(self, t):
        """Abort with the condsync retry code (used via condsync)."""
        yield O.XAbort(RETRY_CODE)
        raise AssertionError("xabort returned")  # pragma: no cover

    # ------------------------------------------------------------------
    # Handler registration (9 instructions + 1 per argument)
    # ------------------------------------------------------------------

    def register_commit_handler(self, t, fn, *args):
        yield from self._register(t, "commit", fn, args)

    def register_violation_handler(self, t, fn, *args):
        yield from self._register(t, "violation", fn, args)

    def register_abort_handler(self, t, fn, *args):
        yield from self._register(t, "abort", fn, args)

    def _register(self, t, kind, fn, args):
        if t.depth() < 1:
            raise IsaError(f"registering a {kind} handler outside a "
                           "transaction")
        rt = t.rt
        code_id = self.machine.codereg.register(fn)
        top = {"commit": rt.ch_top, "violation": rt.vh_top,
               "abort": rt.ah_top}[kind]
        nargs = len(args)
        yield t.alu()  # compute entry address
        yield t.imstid(top, code_id)
        yield t.imstid(top + WORD_SIZE, nargs)
        for i, arg in enumerate(args):
            yield t.imstid(top + (2 + i) * WORD_SIZE, arg)
        yield t.imstid(top + (2 + nargs) * WORD_SIZE, nargs)
        new_top = top + (3 + nargs) * WORD_SIZE
        rt.bounds_check(new_top, kind)
        yield t.alu(5)  # new top, bounds check, cached-register update,
        #                 spill, link
        if kind == "commit":
            rt.ch_top = new_top
        elif kind == "violation":
            rt.vh_top = new_top
        else:
            rt.ah_top = new_top
        t.stats.add(f"rt.{kind}_handlers_registered")

    # ------------------------------------------------------------------
    # Dispatchers (the code at xvhcode / xahcode)
    # ------------------------------------------------------------------

    def _violation_dispatcher(self, t):
        """Software at ``xvhcode``: run registered violation handlers in
        reverse registration order for every level being rolled back, then
        either resume or roll back (6 instructions on the no-handler
        path)."""
        rt = t.rt
        depth = t.depth()
        if depth == 0:
            # The conflicting transaction already finished (e.g. the
            # violation raced with our commit); nothing to do.
            yield O.XVClear()
            yield O.XVRet()
            return HandlerOutcome.resume()
        mask = t.isa.xvcurrent or (1 << (depth - 1))
        vaddr = t.isa.xvaddr
        target = min(lowest_level_in_mask(mask), depth)
        # The violation may have interrupted an open-nested library or
        # compensation transaction mid-flight.  Its speculative state —
        # e.g. a compensation slot's not-yet-committed disarm — must not
        # be visible to the handler walk below, or the walk skips a
        # compensation whose effect the final rollback is about to undo
        # (a §6b.2 re-walk would then find the entry already popped: a
        # leak).  Kill the in-flight open run first; the undo re-arms
        # whatever it had speculatively disarmed.
        state = t.machine.htm.states[t.cpu_id]
        kill = depth
        while (kill > target and state.levels[kill - 1].open
               and state.levels[kill - 1].status == ACTIVE):
            kill -= 1
        if kill < depth:
            yield O.XRwSetClear(level=kill + 1)
        frame = tcb.frame_addr(t.cpu_id, target)
        yield t.imld(frame + tcb.VH_TOP * WORD_SIZE)  # saved base
        yield t.alu()  # compute walk bounds
        action = yield from self._walk_back(
            t, rt.vh_top, rt.vh_base_of(target), "violation")
        if action == RESUME:
            yield O.XVClear()
            yield O.XVRet()
            return HandlerOutcome.resume()
        yield O.XRwSetClear(level=target)
        yield O.XRegRestore()
        rt.reset_to(target)
        yield t.alu()  # restore handler-stack tops
        yield O.XVRet()
        return HandlerOutcome.rollback(target, "violation", vaddr=vaddr)

    def _abort_dispatcher(self, t):
        """Software at ``xahcode``: like the violation dispatcher but for
        voluntary aborts of the current transaction (§4.4)."""
        rt = t.rt
        depth = t.depth()
        code = t.isa.xabort_code
        target = depth
        frame = tcb.frame_addr(t.cpu_id, target)
        yield t.imld(frame + tcb.AH_TOP * WORD_SIZE)
        yield t.alu()
        action = yield from self._walk_back(
            t, rt.ah_top, rt.ah_base_of(target), "abort")
        if action == RESUME:
            yield O.XVClear()
            yield O.XVRet()
            return HandlerOutcome.resume()
        yield O.XRwSetClear(level=target)
        yield O.XRegRestore()
        rt.reset_to(target)
        yield t.alu()
        yield O.XVRet()
        return HandlerOutcome.rollback(target, "abort", code=code)

    def _walk_back(self, t, top, stop, kind):
        """Run handler entries in [stop, top) newest-first.  Stops early
        (returning RESUME) if a handler votes to resume."""
        ptr = top
        while ptr > stop:
            nargs = yield t.imld(ptr - WORD_SIZE)
            entry = ptr - (nargs + 3) * WORD_SIZE
            code = yield t.imld(entry)
            args = []
            for i in range(nargs):
                args.append((yield t.imld(entry + (2 + i) * WORD_SIZE)))
            ptr = entry
            handler = self.machine.codereg.get(code)
            t.stats.add(f"rt.{kind}_handlers_run")
            action = yield from handler(t, *args)
            if action == RESUME:
                return RESUME
        return None

    def _commit_walk_marker(self, t):
        """Placeholder generator so ``xchcode`` names real code; the walk
        itself is inlined in :meth:`commit_tx`."""
        yield t.alu()  # pragma: no cover
