"""The operation vocabulary of simulated programs.

A simulated program is a Python generator that *yields* :class:`Op`
instances to the hardware and receives each operation's result via
``send``::

    def body(t):
        value = yield Load(addr)
        yield Store(addr, value + 1)
        yield Alu(5)                      # five cycles of computation

Programs normally do not construct these directly; the thread handle
(:class:`repro.isa.context.Cpu`) and the runtime provide ergonomic
helpers.  Every yielded ``Op`` counts as one dynamic instruction, which is
how the Section 7 overhead numbers (6-instruction ``xbegin`` etc.) are
measured.

A program may also yield a :class:`Call`, which is not an operation: it
asks the engine to run a sub-generator on the CPU's call stack (see
:mod:`repro.sim.engine`).
"""

from __future__ import annotations

import dataclasses


class Op:
    """Base class for every operation a program can yield."""

    __slots__ = ()


class Call:
    """``result = yield Call(gen)``: run ``gen`` as a callee.

    Means exactly what ``result = yield from gen`` means: ``gen``'s
    return value (or the exception it raises) comes back at the yield.
    The difference is who holds the chain: with ``yield from`` every
    resume passes through each delegating frame, while the engine keeps
    a ``Call``'s callee on its own call stack and resumes it directly,
    so a step's host cost does not grow with the nesting depth.  A
    ``Call`` is not an :class:`Op`: it costs no step, no cycle and no
    instruction, and the step journal never records it.
    """

    __slots__ = ("generator",)

    def __init__(self, generator):
        self.generator = generator

    def __repr__(self):
        return f"Call({self.generator!r})"


# ---------------------------------------------------------------------------
# Memory operations
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True, slots=True)
class Load(Op):
    """Transactional load: value returned, address added to the read-set."""

    addr: int


class _ValueOp(Op):
    """Base of the value-carrying stores.

    A store's value has unbounded variety, so it cannot be interned
    like ``Load``; a fresh one is built per dynamic store.  These are
    plain slotted classes rather than frozen dataclasses because the
    frozen ``__init__`` (an ``object.__setattr__`` call per field) cost
    more than twice as much per store.  They are immutable by
    convention: nothing mutates or hashes an op (``__hash__`` is None),
    and :func:`repro.sim.snapshot.copy_value` shares them, parked ones
    included.
    """

    __slots__ = ("addr", "value")

    def __init__(self, addr, value):
        self.addr = addr
        self.value = value

    def __repr__(self):
        return (f"{type(self).__name__}(addr={self.addr!r}, "
                f"value={self.value!r})")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.addr == other.addr and self.value == other.value

    __hash__ = None


class Store(_ValueOp):
    """Transactional store: buffered/logged, address added to write-set."""

    __slots__ = ()


@dataclasses.dataclass(frozen=True, slots=True)
class ImLoad(Op):
    """Immediate load (``imld``): bypasses the read-set.

    For thread-private or provably read-only data only (paper §4.7).
    """

    addr: int


class ImStore(_ValueOp):
    """Immediate store (``imst``): writes memory now, bypasses the
    write-set, but keeps undo information so a rollback restores it."""

    __slots__ = ()


class ImStoreId(_ValueOp):
    """Idempotent immediate store (``imstid``): like ``imst`` but keeps no
    undo information; survives rollbacks."""

    __slots__ = ()


@dataclasses.dataclass(frozen=True, slots=True)
class Release(Op):
    """Early release: drop ``addr`` from the current read-set."""

    addr: int


# ---------------------------------------------------------------------------
# Transaction-definition instructions (paper Table 2)
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True, slots=True)
class XBegin(Op):
    """Checkpoint registers and start a (closed-nested) transaction.

    ``open=True`` is ``xbegin_open``.  Returns the new nesting level.
    """

    open: bool = False


@dataclasses.dataclass(frozen=True, slots=True)
class XValidate(Op):
    """Verify atomicity of the current transaction; status -> validated."""


@dataclasses.dataclass(frozen=True, slots=True)
class XCommit(Op):
    """Atomically commit the current transaction."""


@dataclasses.dataclass(frozen=True, slots=True)
class XAbort(Op):
    """Abort the current transaction and dispatch the abort handler.

    ``code`` is made available to the handler (used e.g. by the condsync
    runtime to distinguish ``retry`` from error aborts).
    """

    code: object = None


# ---------------------------------------------------------------------------
# State and handler management instructions
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True, slots=True)
class XRwSetClear(Op):
    """Discard the read- and write-set and speculative data at ``level``
    (default: the current level) and every deeper level, and clear the
    ``xvcurrent``/``xvpending`` bits for those levels.

    Flushing the write-buffer / processing the undo-log is folded into
    this instruction's latency (the paper leaves the split between
    hardware gang-clear and software log walk to the implementation);
    clearing deeper levels in one go models the gang-invalidate of §6.3.
    """

    level: object = None


@dataclasses.dataclass(frozen=True, slots=True)
class XRegRestore(Op):
    """Restore the register checkpoint of the current transaction.

    In this model, register state is the Python frame of the transaction
    body; the actual unwinding happens when the dispatcher finishes and the
    engine raises :class:`~repro.common.errors.TxRollback` into the
    program.  ``XRegRestore`` marks the architectural point of the restore
    and charges its cost.
    """


@dataclasses.dataclass(frozen=True, slots=True)
class XVRet(Op):
    """Return from a violation/abort handler: re-enable violation
    reporting and jump to ``xvpc``.  Only valid inside a dispatcher."""


@dataclasses.dataclass(frozen=True, slots=True)
class XEnViolRep(Op):
    """Re-enable violation reporting (used before open-nested transactions
    inside handlers, see paper footnote 1)."""


@dataclasses.dataclass(frozen=True, slots=True)
class XVClear(Op):
    """Acknowledge handled conflicts: clear ``mask`` bits (default: all)
    from ``xvcurrent`` without touching the read-/write-sets.

    The paper makes clearing the bitmask software's responsibility (§4.6)
    but names only ``xrwsetclear``, which also discards the sets; a
    handler that *resumes* its transaction (e.g. the condsync scheduler)
    must keep its read-set, so this reproduction adds the obvious
    non-destructive acknowledge.  Documented in DESIGN.md.
    """

    mask: object = None


# ---------------------------------------------------------------------------
# Engine operations (not ISA; model CPU-local work and the OS substrate)
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True, slots=True)
class Alu(Op):
    """``cycles`` of non-memory computation (CPI = 1 per the paper, so this
    also counts as ``cycles`` dynamic instructions)."""

    cycles: int = 1


@dataclasses.dataclass(frozen=True, slots=True)
class YieldCpu(Op):
    """Deschedule this thread until another thread wakes it.

    If a wakeup already arrived (wake token pending), this is a no-op —
    that closes the lost-wakeup window between registering a watch and
    sleeping.
    """


@dataclasses.dataclass(frozen=True, slots=True)
class Wake(Op):
    """Wake thread ``cpu_id`` (models an inter-processor interrupt)."""

    cpu_id: int


@dataclasses.dataclass(frozen=True, slots=True)
class Fence(Op):
    """One-cycle ordering point; useful for timing markers in tests."""


@dataclasses.dataclass(frozen=True, slots=True)
class SerialAcquire(Op):
    """Try to acquire machine-wide serial mode: while held, no other CPU
    can validate/commit a publishing transaction.

    Returns True on success, False if another CPU holds it or validated
    transactions are still draining.  This is the minimal architectural
    hook behind which a virtualization scheme sits (paper §6.3.3): when a
    transaction overflows the hardware (CapacityAbort), the runtime
    re-executes it under serial mode with unbounded (plain-memory)
    buffering.  Documented as a reproduction extension in DESIGN.md.
    """


@dataclasses.dataclass(frozen=True, slots=True)
class SerialRelease(Op):
    """Release serial mode (must be held by this CPU)."""


#: Operations whose execution reads or writes the memory system.
MEMORY_OPS = (Load, Store, ImLoad, ImStore, ImStoreId)

#: The complete core operation vocabulary, in definition order.  The
#: interpreter (:mod:`repro.isa.context`) builds its per-CPU dispatch
#: table from this tuple at import time and executes nothing else.
ALL_OPS = (
    Load,
    Store,
    ImLoad,
    ImStore,
    ImStoreId,
    Release,
    XBegin,
    XValidate,
    XCommit,
    XAbort,
    XRwSetClear,
    XRegRestore,
    XVRet,
    XEnViolRep,
    XVClear,
    Alu,
    YieldCpu,
    Wake,
    Fence,
    SerialAcquire,
    SerialRelease,
)

#: Operations implementing paper Table 2.
ISA_OPS = (
    XBegin,
    XValidate,
    XCommit,
    XAbort,
    XRwSetClear,
    XRegRestore,
    XVRet,
    XEnViolRep,
    XVClear,
    ImLoad,
    ImStore,
    ImStoreId,
    Release,
)
