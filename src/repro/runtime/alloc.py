"""Transactional memory allocation (paper Section 5).

``malloc`` inside a transaction runs as an **open-nested** transaction —
including the ``brk`` path — so allocator metadata creates no dependences
between user transactions.  For unmanaged languages a violation/abort
handler is registered that frees the block if the user transaction rolls
back; for managed languages (``managed=True``) no handler is needed, as
garbage collection would reclaim the block.

``free`` inside a transaction must be *deferred*: the block can only
really be released once the transaction is known to commit, so it runs as
a commit handler.

The compensation follows DESIGN.md §6b.6: the handlers are registered
*before* the open-nested effect, carrying a thread-private *slot* that
the open transaction arms with the block address via ``imst`` — the
arming commits exactly when the allocation does and is retracted with it,
so every kill window finds the slot either disarmed (no block exists yet)
or armed with the one block to free.  Registering handlers *after* the
open commit would leave a window in which a violation leaks the block.
"""

from __future__ import annotations


class TxAlloc:
    """The transactional allocation library over a shared heap."""

    def __init__(self, runtime, heap):
        self.runtime = runtime
        self.heap = heap

    def malloc(self, t, n_words, managed=False):
        """Allocate ``n_words`` from the shared heap; returns the address.

        Inside a transaction: open-nested allocation plus compensation
        handlers (unless ``managed``).  Outside: a plain transaction.
        """
        rt = self.runtime

        if t.depth() == 0:
            def do_alloc(t):
                addr = yield from self.heap.malloc(t, n_words)
                return addr

            addr = yield from rt.atomic(t, do_alloc)
            return addr

        slot = 0
        if not managed:
            # Arm-before-effect (§6b.6): a fresh private slot, disarmed,
            # then the handlers, then the effect.
            slot = t.rt.alloc_private(1)
            yield t.imstid(slot, 0)
            yield from rt.register_violation_handler(
                t, self._compensate_slot, slot)
            yield from rt.register_abort_handler(
                t, self._compensate_slot, slot)

        def do_alloc(t):
            hooks = rt.machine.fault_hooks
            if hooks is not None:
                yield from hooks.on_alloc(t, n_words)
            addr = yield from self.heap.malloc(t, n_words)
            if slot:
                # imst at the open level: permanent iff this open
                # transaction commits — i.e. iff the block really exists.
                yield t.imst(slot, addr)
            return addr

        addr = yield from rt.atomic_open(t, do_alloc)
        t.stats.add("alloc.mallocs")
        return addr

    def _compensate_slot(self, t, slot):
        """Violation/abort handler: free the block the armed slot names.

        The disarm is an ``imst`` *inside* the freeing open transaction,
        so it becomes permanent exactly when the free publishes and is
        retracted with it: a handler walk killed mid-compensation (a new
        violation unwinding this dispatcher, §6b.2) rolls the half-done
        free back *and re-arms the slot*, and the re-invoked walk — or
        the paired abort/violation registration — simply runs the
        compensation again.  A walk that finds the slot already cleared
        (the free committed) does nothing."""
        rt = self.runtime
        addr = yield t.imld(slot)
        if not addr:
            return

        def do_free(t):
            yield t.imst(slot, 0)
            yield from self.heap.free(t, addr)

        yield from rt.atomic_open(t, do_free)
        t.stats.add("alloc.compensated_frees")

    def free(self, t, addr):
        """Release ``addr``.  Inside a transaction, the release is
        deferred to a commit handler (the block must survive a rollback
        of the surrounding transaction)."""
        rt = self.runtime

        def do_free(t):
            yield from self.heap.free(t, addr)

        if t.depth() == 0:
            yield from rt.atomic(t, do_free)
            return
        yield from rt.register_commit_handler(t, self._deferred_free, addr)
        t.stats.add("alloc.deferred_frees")

    def _deferred_free(self, t, addr):
        """Commit handler: the real free, open-nested."""
        rt = self.runtime

        def do_free(t):
            yield from self.heap.free(t, addr)

        yield from rt.atomic_open(t, do_free)
