"""Transactional I/O (paper Sections 3, 5, and 7.2).

The paper's recipe for request/reply I/O inside transactions:

* **Output** — buffer the data in thread-private memory and register a
  *commit handler* that performs the real system call between
  ``xvalidate`` and ``xcommit``.  If the transaction violates, the
  private buffer is discarded with the rest of the speculative state
  (here: the buffer length word is written with ``imst``, whose undo
  record restores it on rollback).

* **Input** — perform the system call immediately, inside an
  *open-nested* transaction (so no dependences arise through system
  state like the file position), and register *violation and abort
  handlers* that restore the file position if the user transaction rolls
  back.

Files are simulated devices: contents live host-side (the "disk"), while
the shared metadata every thread contends on — the file position and
size — lives in simulated shared memory, so system-state conflicts are
real conflicts.
"""

from __future__ import annotations

from repro.common.errors import ReproError


class SimFile:
    """A simulated file: host-side contents, shared-memory metadata."""

    def __init__(self, arena, name, initial=()):
        self.name = name
        self.data = list(initial)          # the device
        self.pos_addr = arena.alloc_word(0, isolate=True)
        self.size_addr = arena.alloc_word(len(self.data), isolate=True)

    # Device-side accessors (no simulated cost; the syscall wrappers
    # charge syscall_cycles around them).

    def device_read(self, pos, n):
        return self.data[pos:pos + n]

    def device_append(self, items):
        self.data.extend(items)


class TxIo:
    """The transactional I/O library bound to one runtime."""

    #: Private-buffer capacity in words (per thread per file).
    BUFFER_WORDS = 256

    def __init__(self, runtime):
        self.runtime = runtime
        self.machine = runtime.machine
        self._buffers = {}  # (cpu_id, file) -> (len_addr, flag_addr, base)
        #: Small dense per-library file handles.  Handler-stack entries
        #: carry the handle (they end up in simulated memory, so the key
        #: must be schedule-deterministic — ``id(f)`` would leak a host
        #: pointer into the memory image).
        self._file_keys = {}
        self._files_by_key = {}

    def _file_key(self, f):
        """The deterministic file handle (assigned in first-use order)."""
        key = self._file_keys.get(id(f))
        if key is None:
            key = len(self._files_by_key) + 1
            self._file_keys[id(f)] = key
            self._files_by_key[key] = f
        return key

    def _buffer_for(self, t, f):
        """Lazily allocate the (thread, file) private output buffer."""
        key = (t.cpu_id, self._file_key(f))
        if key not in self._buffers:
            rt = t.rt
            len_addr = rt.alloc_private(1)
            flag_addr = rt.alloc_private(1)
            base = rt.alloc_private(self.BUFFER_WORDS, line_align=True)
            self._buffers[key] = (len_addr, flag_addr, base, f)
        return self._buffers[key]

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------

    def write(self, t, f, items):
        """Transactional write: buffer ``items``; real output at commit.

        Outside a transaction, writes through immediately.
        """
        rt = self.runtime
        if t.depth() == 0:
            yield from self._syscall_append(t, f, list(items))
            return
        from repro.common.params import WORD_SIZE

        len_addr, flag_addr, base, _ = self._buffer_for(t, f)
        n = yield t.imld(len_addr)
        if n + len(items) > self.BUFFER_WORDS:
            raise ReproError(f"tx write buffer overflow on {f.name}")
        for i, item in enumerate(items):
            # imst: immediate stores with undo, so a rollback retracts the
            # buffered output automatically (paper §7.2: "the local buffer
            # is automatically discarded").
            yield t.imst(base + (n + i) * WORD_SIZE, item)
        yield t.imst(len_addr, n + len(items))
        registered = yield t.imld(flag_addr)
        if not registered:
            # The flag is written with imst too: if this transaction rolls
            # back, the registration is discarded with the handler stack
            # and the flag's undo record re-arms it for the retry.
            yield t.imst(flag_addr, 1)
            yield from rt.register_commit_handler(
                t, self._flush_handler, len_addr, flag_addr, base,
                self._file_key(f))
        t.stats.add("txio.writes")

    def _flush_handler(self, t, len_addr, flag_addr, base, file_key):
        """Commit handler: perform the buffered output as one syscall."""
        from repro.common.params import WORD_SIZE

        f = self._buffers[(t.cpu_id, file_key)][3]
        n = yield t.imld(len_addr)
        items = []
        for i in range(n):
            items.append((yield t.imld(base + i * WORD_SIZE)))
        yield from self._syscall_append(t, f, items)
        # Permanent resets: the output happened.
        yield t.imstid(len_addr, 0)
        yield t.imstid(flag_addr, 0)
        t.stats.add("txio.flushes")

    def _syscall_append(self, t, f, items):
        """The write(2) analogue, run as an open-nested transaction so
        system state (file size) creates no dependence on the user
        transaction."""
        rt = self.runtime

        def update_metadata(t):
            size = yield t.load(f.size_addr)
            yield t.store(f.size_addr, size + len(items))

        # The kernel-crossing cost is per-CPU work; only the tiny shared
        # metadata update runs (open-nested) transactionally and can
        # retry.  The device mutation is performed exactly once, after
        # the metadata transaction has committed.
        yield t.alu(self.machine.config.syscall_cycles)
        hooks = self.machine.fault_hooks
        if hooks is not None:
            yield from hooks.on_io(t, f, "append", items)
        if t.depth() == 0:
            yield from rt.atomic(t, update_metadata)
        else:
            yield from rt.atomic_open(t, update_metadata)
        f.device_append(items)
        t.stats.add("txio.syscall_writes")

    # ------------------------------------------------------------------
    # Input
    # ------------------------------------------------------------------

    def read(self, t, f, n, open_nested=True):
        """Transactional read.

        ``open_nested=True`` (the paper's scheme, §5): the system call
        runs immediately in an open-nested transaction — no dependence
        arises through the file position — and violation/abort handlers
        compensate by restoring the position if the user transaction
        rolls back.  Exactly-once for the common request/reply pattern
        (one logical reader per file); concurrent readers of one stream
        can observe duplicates if compensations interleave with commits.

        ``open_nested=False``: the position update is ordinary
        transactional state of the user transaction.  Rollback is
        automatic and concurrent readers partition the stream
        exactly-once — at the cost of the inter-consumer conflicts the
        open-nested scheme exists to avoid.
        """
        rt = self.runtime
        yield t.alu(self.machine.config.syscall_cycles)
        hooks = self.machine.fault_hooks
        if hooks is not None:
            yield from hooks.on_io(t, f, "read", None)

        def syscall(t):
            pos = yield t.load(f.pos_addr)
            items = f.device_read(pos, n)
            yield t.store(f.pos_addr, pos + len(items))
            return pos, items

        if t.depth() == 0:
            pos, items = yield from rt.atomic(t, syscall)
            return items
        if not open_nested:
            pos, items = yield from syscall(t)
            t.stats.add("txio.reads_closed")
            return items
        pos, items = yield from rt.atomic_open(t, syscall)
        key = self._file_key(f)
        yield from rt.register_violation_handler(
            t, self._restore_pos_handler, key, pos)
        yield from rt.register_abort_handler(
            t, self._restore_pos_handler, key, pos)
        t.stats.add("txio.reads")
        return items

    def _restore_pos_handler(self, t, file_key, pos):
        """Violation/abort handler: compensate the early read (lseek)."""
        f = self._files_by_key[file_key]
        rt = self.runtime

        def syscall(t):
            yield t.alu(self.machine.config.syscall_cycles)
            yield t.store(f.pos_addr, pos)

        yield from rt.atomic_open(t, syscall)
        t.stats.add("txio.compensations")
