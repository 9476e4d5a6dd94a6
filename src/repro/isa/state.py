"""Architectural register state (paper Table 1).

``xstatus`` is derived from the HTM engine (transaction ID, type, status,
nesting level); everything else lives here.  The handler *stack pointers*
(``xchptr_base`` etc.) are TCB fields stored in simulated thread-private
memory — see :mod:`repro.isa.tcb` — exactly as Table 1 specifies.

Violation bookkeeping: the paper gives one ``xvaddr`` register and notes
that conflicts detected while reporting is disabled are remembered in
``xvpending`` and the handler is *re-invoked* after ``xvret`` (§4.3,
§4.6).  We model that re-invocation faithfully with a small hardware FIFO
of (mask, address) records: delivery pops one record into
``xvcurrent``/``xvaddr``; anything still queued is visible as
``xvpending`` and triggers another handler invocation on return.
"""

from __future__ import annotations

from collections import deque


class IsaState:
    """Registers of one hardware thread.

    Slotted: the violation registers are probed at every instruction
    boundary, so the per-step attribute loads should not go through a
    dict (subclasses built via the ``Machine.make_isa_state`` seam may
    still add their own attributes — they get a ``__dict__`` unless they
    declare slots too).
    """

    __slots__ = (
        "cpu_id", "xtcbptr_base", "xtcbptr_top", "xchcode", "xvhcode",
        "xahcode", "xvpc", "xvaddr", "xvcurrent", "_vqueue", "_live",
        "viol_reporting", "xabort_code", "requeue_enabled",
    )

    #: Snapshot state (repro.sim.snapshot): every register but the
    #: identity.
    _state = __slots__[1:]

    def __init__(self, cpu_id):
        self.cpu_id = cpu_id

        # --- basic state (Table 1) ---------------------------------------
        #: Base and current top of the TCB stack in thread-private memory.
        self.xtcbptr_base = 0
        self.xtcbptr_top = 0

        # --- handler state -------------------------------------------------
        #: Code-registry ids of the commit/violation/abort dispatcher code.
        #: 0 means "no software installed"; the hardware default applies.
        self.xchcode = 0
        self.xvhcode = 0
        self.xahcode = 0

        # --- violation & abort state ----------------------------------------
        #: PC saved when a violation/abort interrupted the transaction.  In
        #: this model the interrupted continuation is the suspended
        #: generator, so ``xvpc`` records the instruction count at the
        #: interrupt for diagnostics rather than a raw address.
        self.xvpc = 0
        #: Conflicting address (tracking-unit base) of the violation being
        #: handled, when the hardware had one to report.
        self.xvaddr = None
        #: Violation bitmask of the conflict being handled: bit ``level-1``
        #: set means that nesting level was violated.
        self.xvcurrent = 0
        #: Hardware FIFO of undelivered (mask, addr) conflict records.
        self._vqueue = deque()
        #: Signalled-and-unresolved bits per conflicting address.  The
        #: paper's ``xvpending`` is a *bitmask*: re-signalling a level
        #: already pending for the same line ORs into an already-set bit
        #: and raises no new handler invocation.  Our record FIFO models
        #: the re-invocation, so it must coalesce explicitly — an eager
        #: requester's parked operation retries every couple of cycles,
        #: and without coalescing each retry posts a fresh identical
        #: record that preempts the victim's in-flight compensation walk
        #: (unbounded nested dispatch; the rollback that would release
        #: the line never completes).  Bits clear when the conflict is
        #: resolved: ``xvclear`` or the rollback's ``xrwsetclear``.
        self._live = {}

        #: Violation-reporting enable (cleared on handler dispatch and
        #: ``xabort``; set by ``xvret`` / ``xenviolrep``).
        self.viol_reporting = True

        #: Abort code of the most recent ``xabort`` (software-visible).
        self.xabort_code = None

        #: Fault-injection hook: when False, :meth:`requeue_current`
        #: silently drops the record a dying dispatcher was handling —
        #: the exact bug DESIGN.md §6b.2 fixed.  The
        #: :class:`repro.faults.FaultInjector` flips this (fault kind
        #: ``drop-requeue``) to prove the lost-wakeup oracle catches the
        #: regression.
        self.requeue_enabled = True

    # ------------------------------------------------------------------

    @property
    def xvpending(self):
        """Pending-violation bitmask: the OR over undelivered records."""
        mask = 0
        for record_mask, _ in self._vqueue:
            mask |= record_mask
        return mask

    def post(self, mask, addr):
        """Hardware-side recording of a detected conflict.

        Idempotent per (level, address) until resolved: a conflict whose
        bits are all still signalled-and-unresolved for the same address
        is already on its way to a handler and is not recorded again.
        """
        live = self._live.get(addr, 0)
        if not (mask & ~live):
            return
        self._live[addr] = live | mask
        self._vqueue.append((mask, addr))

    def has_deliverable(self):
        """An *undelivered* conflict record is ready for handler dispatch.

        Delivery is driven by the queue alone: a record currently being
        handled lives in ``xvcurrent``/``xvaddr`` (saved and restored
        across nested dispatch like any interrupted register state), so a
        handler that re-enables reporting for an open-nested transaction
        is interrupted only by *new* conflicts, never re-entered for the
        one it is already handling.
        """
        return bool(self._vqueue)

    def pop_next(self):
        """Deliver the next queued conflict into ``xvcurrent``/``xvaddr``."""
        mask, addr = self._vqueue.popleft()
        self.xvcurrent = mask
        self.xvaddr = addr

    def clear_current(self, mask=None):
        """``xvclear``: software acknowledges handled conflicts."""
        if mask is None:
            cleared = self.xvcurrent
            self.xvcurrent = 0
        else:
            cleared = self.xvcurrent & mask
            self.xvcurrent &= ~mask
        if cleared:
            self._unlive(self.xvaddr, cleared)

    def _unlive(self, addr, mask):
        """Resolve signalled bits so the conflict can be re-posted."""
        live = self._live.get(addr, 0) & ~mask
        if live:
            self._live[addr] = live
        elif addr in self._live:
            del self._live[addr]

    def requeue_current(self, rollback_level):
        """A dispatcher died before finishing (a nested rollback unwound
        it).  Re-queue the record it was handling, restricted to the
        levels that survive the rollback, so the conflict is re-delivered
        instead of silently dropped."""
        keep = (1 << (rollback_level - 1)) - 1
        mask = self.xvcurrent & keep
        if mask and self.requeue_enabled:
            self._vqueue.appendleft((mask, self.xvaddr))
        self.xvcurrent = 0

    def retire_level(self, level, merged):
        """Hardware commit of ``level``: pending bits follow the sets.

        A closed commit (``merged=True``) hands the level's read/write
        sets to its parent, so a pending violation bit moves down with
        them; an open or outermost commit discards the sets, and pending
        bits for the level die with them.  Without this, a record posted
        during a reporting-off window outlives the transaction it names
        and is mis-delivered against whatever runs at that level next.
        """
        bit = 1 << (level - 1)

        def fix(mask):
            if not mask & bit:
                return mask
            mask &= ~bit
            if merged:
                mask |= bit >> 1
            return mask

        self.xvcurrent = fix(self.xvcurrent)
        remaining = deque()
        for mask, addr in self._vqueue:
            mask = fix(mask)
            if mask:
                remaining.append((mask, addr))
        self._vqueue = remaining
        for addr in list(self._live):
            live = fix(self._live[addr])
            if live:
                self._live[addr] = live
            else:
                del self._live[addr]

    def clear_masks_at_and_above(self, level):
        """Drop the violation bits for ``level`` and deeper, both current
        and queued (performed by ``xrwsetclear``, paper §4.3/§4.6)."""
        keep = (1 << (level - 1)) - 1
        self.xvcurrent &= keep
        remaining = deque()
        for mask, addr in self._vqueue:
            mask &= keep
            if mask:
                remaining.append((mask, addr))
        self._vqueue = remaining
        for addr in list(self._live):
            live = self._live[addr] & keep
            if live:
                self._live[addr] = live
            else:
                del self._live[addr]


def lowest_level_in_mask(mask):
    """Outermost (lowest) violated nesting level named by ``mask``."""
    level = 1
    while mask:
        if mask & 1:
            return level
        mask >>= 1
        level += 1
    return 0
