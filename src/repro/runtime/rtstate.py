"""Per-thread software runtime state.

The authoritative handler-stack *top* pointers are register-cached (plain
attributes here, modelling the registers the paper says hot TCB fields
live in), and are spilled into the TCB frame at ``xbegin`` like saved
registers in an activation record.  A transaction's handler-stack *base*
is, by construction, the top at the moment it began — which makes the
closed-nested commit "merge child handlers into parent" operation the
no-op the paper engineers it to be (the parent simply inherits the child's
top, §4.6).
"""

from __future__ import annotations

from repro.common.errors import ReproError
from repro.common.params import WORD_SIZE
from repro.isa import tcb


class RtState:
    """Software-managed thread state (handler stacks, scratch heap)."""

    def __init__(self, runtime, t):
        self.runtime = runtime
        self.cpu_id = t.cpu_id

        #: Register-cached handler stack tops (addresses).
        self.ch_top = tcb.handler_stack_base(t.cpu_id, "commit")
        self.vh_top = tcb.handler_stack_base(t.cpu_id, "violation")
        self.ah_top = tcb.handler_stack_base(t.cpu_id, "abort")

        #: Per-level snapshot of the tops at xbegin; index = nesting level.
        #: Level 0 holds the stack bases (the sentinel frame).
        self.bases = {0: (self.ch_top, self.vh_top, self.ah_top)}

        #: Bump pointer for thread-private scratch allocations.
        self._scratch_next = tcb.scratch_base(t.cpu_id)
        self._scratch_end = self._scratch_next + tcb.SCRATCH_BYTES

    # -- handler stack bookkeeping --------------------------------------------

    def snapshot_bases(self, level):
        """Record the tops at ``xbegin`` of ``level``."""
        self.bases[level] = (self.ch_top, self.vh_top, self.ah_top)

    def vh_base_of(self, level):
        return self.bases[level][1]

    def ah_base_of(self, level):
        return self.bases[level][2]

    def reset_to(self, level):
        """Rollback/commit of ``level``: drop its handler registrations
        and any deeper levels' snapshots."""
        self.ch_top, self.vh_top, self.ah_top = self.bases[level]
        for deeper in [lvl for lvl in self.bases if lvl > level]:
            del self.bases[deeper]

    def inherit_to_parent(self, level):
        """Closed-nested commit: parent inherits the child's tops (handler
        entries stay on the stacks; only the snapshot is dropped)."""
        self.bases.pop(level, None)

    def bounds_check(self, top, base_kind):
        limit = tcb.handler_stack_base(self.cpu_id, base_kind) + \
            tcb.HANDLER_STACK_BYTES
        if top >= limit:
            raise ReproError(
                f"cpu {self.cpu_id}: {base_kind} handler stack overflow")

    # -- thread-private scratch allocator --------------------------------------

    def alloc_private(self, n_words, line_align=False):
        """Allocate ``n_words`` of thread-private memory; returns the
        address.  Never freed (arena style): runtime structures live for
        the thread's lifetime."""
        if line_align:
            line = self.runtime.machine.config.line_size
            self._scratch_next += (-self._scratch_next) % line
        addr = self._scratch_next
        self._scratch_next += n_words * WORD_SIZE
        if self._scratch_next > self._scratch_end:
            raise ReproError(f"cpu {self.cpu_id}: private scratch exhausted")
        return addr
