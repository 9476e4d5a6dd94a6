"""The fault injector: attach a :class:`FaultPlan` to a live machine.

Observers (:mod:`repro.obs.observer`) only watch the machine; an
injector must change what it does, so it is the one component that
still wraps machine methods.  It shadows a handful of them with
instance attributes (``Machine._step``, ``HtmSystem.validate``,
``Machine._deliver`` — the violation queueing step — ...) and
``detach()`` deletes the shadows, leaving the class methods in force.
There are no ``if fault:`` branches in any hot path and zero overhead
when no injector is attached — the only permanent cost is a
``getattr(machine, "fault_hooks", None)`` probe on the two *cold*
library paths (txio syscalls, the allocator) that have no engine method
to wrap.

Which methods are wrapped depends on the plan's kind — see
:mod:`repro.faults.plan` for the taxonomy.  Every injection calls
``Machine._fault_event`` (so an attached Tracer records a ``fault``
event) and is logged in ``plan.fired``.

The non-broken kinds are *recoverable by design*: they respect the
paper's invariants (most importantly §6.1 — a VALIDATED transaction is
never violated; ``validated-abort`` devalidates first) so the runtime's
handlers and retry loops must absorb them without an oracle violation.
The ``+broken`` variants each break one recovery rule on purpose, for
the oracle self-tests.
"""

from __future__ import annotations

from repro.faults.plan import FaultPlan, make_plan  # noqa: F401 (re-export)
from repro.htm.system import ACTIVE, VALIDATED
from repro.isa.context import RUNNABLE


class FaultInjector:
    """Wires one :class:`FaultPlan` into a machine until detached."""

    def __init__(self, plan, machine):
        self.plan = plan
        self.machine = machine
        self._saved = {}
        #: (owner, attr, prior instance value or None) per shadowed
        #: method, in wrap order.
        self._shadows = []
        #: Delayed-violation buffer: (due_step, violation) pairs.
        self._buffer = []
        self._steps = 0
        #: token-loss+broken: the arbitration is lost permanently.
        self._token_dead = False
        #: alloc-pressure+broken bookkeeping (per-CPU flags).
        self._suppress_im_store = set()
        self._violate_after_open_commit = set()
        self._attach()

    @property
    def n_injections(self):
        return self.plan.n_injections

    # ------------------------------------------------------------------

    def _event(self, cpu_id, **detail):
        self.plan.record(cpu_id, **detail)
        self.machine._fault_event(self.plan.name, cpu_id, detail)

    def _post(self, victim, level, addr):
        self.machine.htm.detector._post(
            victim, 1 << (level - 1), addr, -1)

    # ------------------------------------------------------------------
    # Attach / detach
    # ------------------------------------------------------------------

    def _attach(self):
        kind = self.plan.kind
        if kind == "spurious-violation":
            self._wrap_step(pre=self._maybe_spurious)
        elif kind == "delayed-violation":
            self._attach_delayed()
        elif kind == "token-loss":
            self._wrap_validate(self._validate_token_loss)
        elif kind == "validated-abort":
            self._wrap_validate(self._validate_forced_abort)
        elif kind == "handler-reentry":
            self._attach_reentry()
        elif kind == "watch-drop":
            self._wrap_step(pre=self._maybe_watch_drop)
        elif kind in ("io-fault", "alloc-pressure"):
            self.machine.fault_hooks = self
            self._saved["hooks"] = True
            if kind == "alloc-pressure" and self.plan.broken:
                self._attach_alloc_broken()
        elif kind == "drop-requeue":
            self._saved["requeue"] = [
                cpu.isa.requeue_enabled for cpu in self.machine.cpus]
            for cpu in self.machine.cpus:
                cpu.isa.requeue_enabled = False

    def detach(self):
        """Remove every shadow; flush any still-delayed deliveries
        (a buffered violation must not simply vanish)."""
        if not self._saved:
            return
        machine = self.machine
        self._flush_delayed()
        for owner, attr, prior in reversed(self._shadows):
            if prior is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, prior)
        self._shadows = []
        if "hooks" in self._saved:
            machine.fault_hooks = None
        if "requeue" in self._saved:
            for cpu, enabled in zip(machine.cpus, self._saved["requeue"]):
                cpu.isa.requeue_enabled = enabled
        self._saved = {}

    # ------------------------------------------------------------------
    # Shared wrapping helpers
    # ------------------------------------------------------------------

    def _shadow(self, owner, attr, wrapper):
        """Shadow ``owner.attr`` with ``wrapper`` until :meth:`detach`;
        the key ``attr`` in ``_saved`` keeps the wrapped callable."""
        self._saved[attr] = getattr(owner, attr)
        self._shadows.append((owner, attr, vars(owner).get(attr)))
        setattr(owner, attr, wrapper)

    def _wrap_step(self, pre):
        machine = self.machine

        def step(cpu, _orig=machine._step):
            pre(cpu)
            _orig(cpu)

        self._shadow(machine, "_step", step)

    def _wrap_validate(self, impl):
        htm = self.machine.htm

        def validate(cpu_id, _orig=htm.validate):
            return impl(cpu_id, _orig)

        self._shadow(htm, "validate", validate)

    # ------------------------------------------------------------------
    # spurious-violation
    # ------------------------------------------------------------------

    def _maybe_spurious(self, _cpu):
        htm = self.machine.htm
        eligible = []
        for state in htm.states:
            if not state.in_tx():
                continue
            if htm.serial_owner == state.cpu_id:
                continue
            if state.is_validated():
                # §6.1: a CPU with a validated level is mid-commit;
                # spurious hardware noise must never target it.
                continue
            eligible += [
                (state.cpu_id, lvl)
                for lvl, info in enumerate(state.levels, start=1)
                if info.status == ACTIVE]
        if not eligible:
            return
        if not self.plan.should_fire():
            return
        victim, level = self.plan.choice(eligible)
        if self.plan.broken:
            # Mis-recovery: the hardware acts on the noise — the level
            # rolls back and restarts — but the handler invocation is
            # dropped, so software keeps executing the stale
            # continuation against the restarted transaction.  Writes
            # issued before the silent rollback vanish from the set the
            # eventual commit publishes (a lost-update anomaly for the
            # serializability oracle).
            self.machine.cpus[victim].do_rollback(level)
            self._event(victim, level=level, silent=True)
            return
        reads = sorted(htm.states[victim].rwsets.reads_at(level))
        addr = self.plan.choice(reads) if reads else 0
        self._post(victim, level, addr)
        self._event(victim, level=level, addr=addr)

    # ------------------------------------------------------------------
    # delayed-violation
    # ------------------------------------------------------------------

    def _attach_delayed(self):
        machine = self.machine
        htm = machine.htm

        def deliver(violation, _orig=machine._deliver):
            victim = machine.cpus[violation.victim]
            # Only a runnable victim can tolerate a hold-back; WAITING
            # and DONE victims need the post now (delivery is the wake).
            # A victim that already validated also needs it now: the
            # xvalidate barrier below only covers violations detected
            # *before* validate entry, so a hold-back landing in the
            # validate->commit window would straddle the commit — the
            # rule-break reserved for the +broken variant.
            delayable = victim.state == RUNNABLE and (
                self.plan.broken
                or not htm.states[violation.victim].is_validated())
            if delayable and self.plan.should_fire():
                # The +broken hold-back is long enough to straddle the
                # victim's whole commit — only the (omitted) xvalidate
                # barrier could save it then.
                delay = (self.plan.randint(20, 60) if self.plan.broken
                         else self.plan.randint(2, 6))
                self._buffer.append((self._steps + delay, violation))
                self._event(violation.victim, delay=delay,
                            mask=violation.mask)
                return
            _orig(violation)

        self._shadow(machine, "_deliver", deliver)

        self._wrap_step(pre=self._delayed_tick)

        if not self.plan.broken:
            # The soundness barrier: a CPU entering xvalidate first
            # receives everything delayed against it, and the validate
            # is retried — so a transaction can never validate past a
            # violation the hardware already detected (§6.1 again, from
            # the delivery side).  The +broken variant omits exactly
            # this, letting a stale transaction commit.
            self._wrap_validate(self._validate_delayed_barrier)

        def park(cpu, _orig=machine._park):
            _orig(cpu)
            # Flush after parking: deliver() sees WAITING and wakes, so
            # a delayed violation can never strand a sleeper.
            self._flush_for(cpu.cpu_id)

        self._shadow(machine, "_park", park)

    def _delayed_tick(self, _cpu):
        self._steps += 1
        if self._buffer:
            due = [v for when, v in self._buffer if when <= self._steps]
            if due:
                self._buffer = [
                    (when, v) for when, v in self._buffer
                    if when > self._steps]
                deliver = self._saved["_deliver"]
                for violation in due:
                    deliver(violation)

    def _validate_delayed_barrier(self, cpu_id, orig):
        if self._flush_for(cpu_id):
            return False  # stall: the delivery preempts the validate
        return orig(cpu_id)

    def _flush_for(self, cpu_id):
        due = [v for _, v in self._buffer if v.victim == cpu_id]
        if not due:
            return False
        self._buffer = [
            (when, v) for when, v in self._buffer if v.victim != cpu_id]
        deliver = self._saved["_deliver"]
        for violation in due:
            deliver(violation)
        return True

    def _flush_delayed(self):
        if not self._buffer:
            return
        deliver = self._saved.get("_deliver")
        if deliver is None:
            return
        for _, violation in self._buffer:
            deliver(violation)
        self._buffer = []

    # ------------------------------------------------------------------
    # token-loss / validated-abort (xvalidate wrapper)
    # ------------------------------------------------------------------

    def _validate_token_loss(self, cpu_id, orig):
        if self._token_dead:
            return False
        if self.plan.should_fire():
            if self.plan.broken:
                # The token is never re-granted: no publishing commit
                # can ever complete again (caught as a cycle overrun).
                self._token_dead = True
            self._event(cpu_id, permanent=self.plan.broken)
            return False
        return orig(cpu_id)

    def _validate_forced_abort(self, cpu_id, orig):
        ok = orig(cpu_id)
        if not ok:
            return ok
        htm = self.machine.htm
        state = htm.states[cpu_id]
        if state.flatten_extra or not state.in_tx():
            return ok
        if state.current().status != VALIDATED:
            return ok
        if not self.plan.should_fire():
            return ok
        level = htm.devalidate(cpu_id)
        if not level:
            return ok
        writes = sorted(state.rwsets.writes_at(level))
        addr = self.plan.choice(writes) if writes else 0
        if self.plan.broken:
            # Silent rollback with no violation and no handlers: the
            # restarted (empty) transaction re-validates and commits,
            # so the program believes its writes landed.
            self.machine.cpus[cpu_id].do_rollback(level)
            self._event(cpu_id, level=level, silent=True)
            return False
        # §6.1-safe forced abort between xvalidate and xcommit: leave
        # the validated set first, then violate.
        self._post(cpu_id, level, addr)
        self._event(cpu_id, level=level, addr=addr)
        return False

    # ------------------------------------------------------------------
    # handler-reentry
    # ------------------------------------------------------------------

    def _attach_reentry(self):
        machine = self.machine

        def push(cpu, kind, _orig=machine._push_dispatcher):
            _orig(cpu, kind)
            if kind == "violation":
                self._after_violation_dispatch(cpu)

        self._shadow(machine, "_push_dispatcher", push)

    def _after_violation_dispatch(self, cpu):
        if self.plan.broken:
            # Corrupt the §6b.2 register-restore chain: drop the saved
            # (xvcurrent, xvaddr) of the frame this dispatch interrupted.
            # When a nested rollback later destroys that frame, the
            # record it was handling cannot be re-queued.
            if cpu.dispatch_depth >= 2 and self.plan.should_fire():
                saved = cpu.saved_viol.pop(len(cpu.frames) - 2, None)
                if saved is not None:
                    self._event(cpu.cpu_id, lost_mask=saved[0])
            return
        state = self.machine.htm.states[cpu.cpu_id]
        if not state.in_tx() or state.is_validated():
            return
        levels = [lvl for lvl, info in enumerate(state.levels, start=1)
                  if info.status == ACTIVE]
        if not levels:
            return
        if not self.plan.should_fire():
            return
        # A new conflict lands while reporting is off: it queues, and
        # re-invokes the handler after xvret (§4.6) — or immediately, if
        # the handler re-enables reporting for an open transaction.
        level = self.plan.choice(levels)
        reads = sorted(state.rwsets.reads_at(level))
        addr = self.plan.choice(reads) if reads else 0
        self._post(cpu.cpu_id, level, addr)
        self._event(cpu.cpu_id, level=level, addr=addr)

    # ------------------------------------------------------------------
    # watch-drop
    # ------------------------------------------------------------------

    def _maybe_watch_drop(self, cpu):
        if cpu.daemon:
            # The condsync scheduler's watch set IS its wakeup mechanism;
            # hardware watch loss there is unrecoverable by design (the
            # paper's scheme assumes the watch set persists).
            return
        htm = self.machine.htm
        state = htm.states[cpu.cpu_id]
        if not state.in_tx() or state.is_validated():
            return
        candidates = []
        for lvl, info in enumerate(state.levels, start=1):
            if info.status != ACTIVE:
                continue
            reads = state.rwsets.reads_at(lvl)
            if reads:
                candidates.append((lvl, reads))
        if not candidates:
            return
        if not self.plan.should_fire():
            return
        level, reads = self.plan.choice(candidates)
        unit = self.plan.choice(sorted(reads))
        state.rwsets.release(level, unit)
        if not self.plan.broken:
            # The hardware notices the capacity loss and conservatively
            # violates the level it dropped from — the safe recovery.
            # The +broken variant drops silently: the transaction keeps
            # running on a read it no longer tracks.
            self._post(cpu.cpu_id, level, unit)
        self._event(cpu.cpu_id, level=level, unit=unit,
                    silent=self.plan.broken)

    # ------------------------------------------------------------------
    # io-fault / alloc-pressure (machine.fault_hooks interface)
    # ------------------------------------------------------------------

    def on_io(self, t, f, op, items):
        """Hook from txio's syscall paths (a generator: charges cycles)."""
        if self.plan.kind != "io-fault":
            return
        if not self.plan.should_fire():
            return
        if self.plan.broken and op == "append":
            # Failure *after* the device effect, retried blindly by the
            # (broken) wrapper: the append lands twice.
            f.device_append(items)
            self._event(t.cpu_id, op=op, duplicated=len(items))
        else:
            # Transient failure (EINTR-style): the syscall is charged
            # again and retried — no effect was performed.
            self._event(t.cpu_id, op=op, transient=True)
        yield t.alu(self.machine.config.syscall_cycles)

    def on_alloc(self, t, n_words):
        """Hook from TxAlloc's open-nested allocation (a generator)."""
        if self.plan.kind != "alloc-pressure":
            return
        if not self.plan.should_fire():
            return
        if self.plan.broken:
            # Break the §6b.6 arm-before-effect recipe: the slot-arming
            # imst after this allocation is lost, and the parent is
            # violated right after the open commit — the compensation
            # handler then finds a disarmed slot and leaks the block.
            self._suppress_im_store.add(t.cpu_id)
            self._violate_after_open_commit.add(t.cpu_id)
            self._event(t.cpu_id, n_words=n_words, suppressed_arming=True)
            yield t.alu(25)
            return
        self._event(t.cpu_id, n_words=n_words, delay=25)
        yield t.alu(25)
        depth = t.depth()
        if depth >= 1:
            # Pressure response: self-violate the open allocation
            # transaction; its atomic wrapper retries the allocation.
            self._post(t.cpu_id, depth, 0)

    def _attach_alloc_broken(self):
        htm = self.machine.htm

        def im_store(cpu_id, addr, value, _orig=htm.im_store):
            if cpu_id in self._suppress_im_store:
                self._suppress_im_store.discard(cpu_id)
                return  # the arming store is lost under pressure
            _orig(cpu_id, addr, value)

        self._shadow(htm, "im_store", im_store)

        def commit(cpu_id, _orig=htm.commit):
            result = _orig(cpu_id)
            if (result.kind == "open"
                    and cpu_id in self._violate_after_open_commit):
                self._violate_after_open_commit.discard(cpu_id)
                depth = htm.depth(cpu_id)
                if depth >= 1:
                    self._post(cpu_id, depth, 0)
            return result

        self._shadow(htm, "commit", commit)


def attach_fault(machine, fault, seed, **plan_kwargs):
    """Convenience: build the plan and attach an injector in one call."""
    return FaultInjector(make_plan(fault, seed, **plan_kwargs), machine)
