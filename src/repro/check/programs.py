"""Small adversarial programs for the schedule-exploration fuzzer.

Each program is a :class:`~repro.workloads.base.Workload` whose
correctness claim is *schedule-independent*: under any interleaving the
engine can produce, the run must finish, the final state must satisfy the
program's invariant, and the recorded history must pass the oracles.
They are deliberately tiny — a fuzz case must cost milliseconds — and
deliberately contended, so randomized schedules actually reorder their
commits.

The roster targets the mechanisms DESIGN.md §6b found fragile:

* ``counter``     — the atomic-increment classic (serializability).
* ``atomicity``   — a non-transactional writer racing transactional
  readers (strong atomicity: no torn reads across one-word commits).
* ``bank``        — conserved-sum transfers (serializability).
* ``writeskew``   — the write-skew shape snapshot systems get wrong; a
  conflict-serializable HTM must not.
* ``nestedopen``  — closed nesting inside, open-nested logging to a hot
  line (open commits publish exactly once, survive parent restarts).
* ``compensation``— open-nested effect + compensating violation handler,
  DESIGN.md §6b.6: the effect must land exactly once per commit, with
  idempotent (absolute-value) compensation registered *before* the
  effect.
* ``requeue``     — a wakeup whose delivery depends on the §6b.2
  violation-record re-queue rule: a dispatcher destroyed by a nested
  rollback must re-queue the record it was handling, or the wake is
  silently dropped and a parked CPU sleeps forever.
* ``condsync``    — the full watch/retry scheduler on one
  producer/consumer pair (no lost or duplicated wakeups).
* ``iochaos``     — the two paper §5 libraries together: open-nested
  allocation with compensation plus buffered transactional output
  (exactly-once log appends, heap conservation).  The natural prey for
  the ``io-fault``/``alloc-pressure`` chaos kinds.

Programs that rely on commit-time violation *delivery* declare
``supports(config)`` accordingly: under eager ``requester_stalls``
detection a writer stalls or self-aborts against a long-running reader
instead of violating it, so the handler-driven scenarios only exist on a
lazy machine.
"""

from __future__ import annotations

import random

from repro.common.errors import ReproError
from repro.common.params import LAZY
from repro.runtime.core import RESUME
from repro.sim import ops as O
from repro.workloads.base import Workload
from repro.workloads.condsync_bench import CondSyncWorkload

from repro.check.oracles import check_exact_count, check_invariant


class CheckProgram(Workload):
    """Base: a workload with fuzzing metadata and extra oracles."""

    #: Simulated-cycle budget for one fuzz case (generous: legitimate
    #: runs finish in a small fraction of this).
    max_cycles = 2_000_000

    #: CPUs allowed to park awaiting a wakeup (None: any).  The
    #: lost-wakeup oracle flags these if the run ends with one asleep.
    waiter_cpus = None

    #: Whether :mod:`repro.spec` models this program.  Programs that
    #: reach around the runtime into raw ISA state (``requeue``) or the
    #: daemon scheduler (``condsync``) sit outside the reference
    #: semantics and are skipped by the conformance oracle.
    spec_supported = True

    def supports(self, config):
        """Whether this program's scenario exists under ``config``."""
        return True

    def check_final(self, machine, history):
        """Program-specific oracles; returns a list of violations."""
        return []

    def outcome(self, machine):
        """The observable final result of a run: the memory cells and
        per-CPU observations this program's correctness is judged on.

        Two runs (or a run and a spec replay) with equal outcomes are
        indistinguishable to the program.  ``None`` means the program
        defines no comparable outcome.
        """
        return None


# ----------------------------------------------------------------------


class CounterProgram(CheckProgram):
    """N workers × M atomic increments of one shared counter."""

    name = "counter"

    def __init__(self, n_threads=3, seed=1, scale=1.0, increments=6):
        super().__init__(n_threads, seed=seed, scale=scale)
        self.increments = increments

    def setup(self, machine, runtime, arena):
        self._rt = runtime
        self.addr = arena.alloc_word(0, isolate=True)
        rng = random.Random(self.seed)
        jitter = [[rng.randrange(40) for _ in range(self.increments)]
                  for _ in range(self.n_threads)]
        for worker in range(self.n_threads):
            runtime.spawn(self._worker, jitter[worker], cpu_id=worker)

    def _worker(self, t, jitter):
        rt = self._rt
        for gap in jitter:
            def body(t):
                value = yield t.load(self.addr)
                yield t.alu(5)
                yield t.store(self.addr, value + 1)

            yield from rt.atomic(t, body)
            yield t.alu(1 + gap)

    def verify(self, machine):
        expected = self.n_threads * self.increments
        final = machine.memory.read(self.addr)
        if final != expected:
            raise ReproError(
                f"counter: final {final}, expected {expected} "
                f"(lost increments)")

    def outcome(self, machine):
        return {"counter": machine.memory.read(self.addr)}


class StrongAtomicityProgram(CheckProgram):
    """A non-transactional writer racing transactional double-readers.

    CPU 0 stores successive values to ``F`` with plain (depth-0) stores;
    the other CPUs run transactions that read ``F`` twice with a compute
    gap.  Strong atomicity makes each depth-0 store a one-word commit, so
    no committed transaction may observe two different values."""

    name = "atomicity"

    def __init__(self, n_threads=3, seed=1, scale=1.0, rounds=5):
        super().__init__(n_threads, seed=seed, scale=scale)
        self.rounds = rounds

    def setup(self, machine, runtime, arena):
        self._rt = runtime
        self.flag = arena.alloc_word(0, isolate=True)
        runtime.spawn(self._writer, cpu_id=0)
        for reader in range(1, self.n_threads):
            runtime.spawn(self._reader, cpu_id=reader)

    def _writer(self, t):
        for value in range(1, self.rounds + 1):
            yield t.alu(30)
            yield t.store(self.flag, value)   # depth 0: one-word commit

    def _reader(self, t):
        rt = self._rt
        pairs = []
        for _ in range(self.rounds):
            def body(t):
                first = yield t.load(self.flag)
                yield t.alu(20)
                second = yield t.load(self.flag)
                return (first, second)

            pairs.append((yield from rt.atomic(t, body)))
            yield t.alu(9)
        return pairs

    def verify(self, machine):
        for reader in range(1, self.n_threads):
            for first, second in machine.cpus[reader].result:
                if first != second:
                    raise ReproError(
                        f"atomicity: cpu {reader} saw torn pair "
                        f"({first}, {second}) across a one-word commit")

    def outcome(self, machine):
        return {
            "flag": machine.memory.read(self.flag),
            "pairs": [machine.cpus[reader].result
                      for reader in range(1, self.n_threads)],
        }


class BankProgram(CheckProgram):
    """Random transfers between accounts; the total is conserved."""

    name = "bank"

    ACCOUNTS = 4
    INITIAL = 100

    def __init__(self, n_threads=3, seed=1, scale=1.0, rounds=5):
        super().__init__(n_threads, seed=seed, scale=scale)
        self.rounds = rounds

    def setup(self, machine, runtime, arena):
        self._rt = runtime
        self.accounts = [arena.alloc_word(self.INITIAL, isolate=True)
                         for _ in range(self.ACCOUNTS)]
        rng = random.Random(self.seed)
        for worker in range(self.n_threads):
            plan = [(rng.randrange(self.ACCOUNTS),
                     rng.randrange(self.ACCOUNTS),
                     rng.randrange(1, 10),
                     rng.randrange(30))
                    for _ in range(self.rounds)]
            runtime.spawn(self._worker, plan, cpu_id=worker)

    def _worker(self, t, plan):
        rt = self._rt
        for src, dst, amount, gap in plan:
            def body(t, src=src, dst=dst, amount=amount):
                balance = yield t.load(self.accounts[src])
                yield t.alu(8)
                yield t.store(self.accounts[src], balance - amount)
                other = yield t.load(self.accounts[dst])
                yield t.store(self.accounts[dst], other + amount)

            yield from rt.atomic(t, body)
            yield t.alu(1 + gap)

    def verify(self, machine):
        total = sum(machine.memory.read(addr) for addr in self.accounts)
        expected = self.ACCOUNTS * self.INITIAL
        if total != expected:
            raise ReproError(
                f"bank: total {total}, expected {expected} "
                f"(non-atomic transfer)")

    def outcome(self, machine):
        return {"balances": [machine.memory.read(addr)
                             for addr in self.accounts]}


class WriteSkewProgram(CheckProgram):
    """The write-skew shape: each transaction reads both cells and
    conditionally withdraws from its own.  Snapshot isolation admits the
    interleaving where both withdraw; conflict serializability does not.
    From (5, 5) exactly one withdrawal can succeed serially, so the final
    sum is exactly 5."""

    name = "writeskew"

    def __init__(self, n_threads=2, seed=1, scale=1.0, attempts=3):
        super().__init__(2, seed=seed, scale=scale)
        self.attempts = attempts

    def setup(self, machine, runtime, arena):
        self._rt = runtime
        self.cells = [arena.alloc_word(5, isolate=True) for _ in range(2)]
        rng = random.Random(self.seed)
        for worker in range(2):
            gaps = [rng.randrange(25) for _ in range(self.attempts)]
            runtime.spawn(self._worker, worker, gaps, cpu_id=worker)

    def _worker(self, t, who, gaps):
        rt = self._rt
        for gap in gaps:
            def body(t):
                mine = yield t.load(self.cells[who])
                other = yield t.load(self.cells[1 - who])
                yield t.alu(10)
                if mine + other >= 6:
                    yield t.store(self.cells[who], mine - 5)

            yield from rt.atomic(t, body)
            yield t.alu(1 + gap)

    def verify(self, machine):
        total = sum(machine.memory.read(addr) for addr in self.cells)
        if total != 5:
            raise ReproError(
                f"writeskew: final sum {total}, expected exactly 5 "
                f"(write skew committed)" if total < 5 else
                f"writeskew: final sum {total}, expected exactly 5 "
                f"(no withdrawal succeeded)")

    def outcome(self, machine):
        return {"cells": [machine.memory.read(addr)
                          for addr in self.cells]}


class NestedOpenProgram(CheckProgram):
    """Closed-nested work on a hot counter with open-nested logging.

    Every attempt open-logs to ``L`` before touching the contended ``D``;
    restarts of the outer transaction re-log, so committed L >= D, and
    open commits must survive parent restarts (L strictly greater when
    any attempt was rolled back)."""

    name = "nestedopen"

    def __init__(self, n_threads=3, seed=1, scale=1.0, rounds=4):
        super().__init__(n_threads, seed=seed, scale=scale)
        self.rounds = rounds

    def setup(self, machine, runtime, arena):
        self._rt = runtime
        self.data = arena.alloc_word(0, isolate=True)
        self.log = arena.alloc_word(0, isolate=True)
        for worker in range(self.n_threads):
            runtime.spawn(self._worker, cpu_id=worker)

    def _worker(self, t):
        rt = self._rt

        def log_attempt(t):
            count = yield t.load(self.log)
            yield t.store(self.log, count + 1)

        def inner(t):
            value = yield t.load(self.data)
            yield t.alu(15)
            yield t.store(self.data, value + 1)

        def body(t):
            yield from rt.atomic_open(t, log_attempt)
            yield from rt.atomic(t, inner)   # closed-nested

        for _ in range(self.rounds):
            yield from rt.atomic(t, body)
            yield t.alu(5)

    def verify(self, machine):
        data = machine.memory.read(self.data)
        log = machine.memory.read(self.log)
        expected = self.n_threads * self.rounds
        if data != expected:
            raise ReproError(
                f"nestedopen: data {data}, expected {expected}")
        if log < data:
            raise ReproError(
                f"nestedopen: open-nested log {log} < committed work "
                f"{data} (an open commit was lost in a parent restart)")

    def check_final(self, machine, history):
        return check_invariant(
            "nestedopen-open-commits",
            any(r.kind == "open" for r in history.committed),
            "no open-nested commit was recorded")

    def outcome(self, machine):
        return {
            "data": machine.memory.read(self.data),
            "log": machine.memory.read(self.log),
        }


class CompensationProgram(CheckProgram):
    """Exactly-once open-nested effects with compensation (§6b.6).

    The *mover* (CPU 0, sole owner of ``POS``) runs transactions that:
    read ``POS``; register a compensating violation handler carrying the
    absolute pre-value (**before** the effect, so every kill window is
    covered); perform the effect ``POS = pre + 1`` in an open-nested
    transaction; then do contended work on ``D`` (where the attackers
    live) and bump a commit counter ``CNT``.  A violation rolls the
    transaction back after compensation restored ``POS = pre`` —
    idempotent because the restore is an absolute store.  The invariant
    on any schedule: ``POS == CNT``.

    The restore itself is an idempotent immediate store (``imstid``),
    not an open-nested transaction: fuzzing showed that a restore
    transaction inside the handler re-enables violation reporting, so a
    stream of conflicts on ``D`` can re-enter the handler from its own
    open transaction and stack nesting levels until the hardware depth
    limit forces a capacity abort.  A single-owner absolute restore
    (DESIGN.md §6b.6) needs no isolation, so ``imstid`` is both safe
    and re-entrancy-proof."""

    name = "compensation"

    def __init__(self, n_threads=3, seed=1, scale=1.0, rounds=4):
        super().__init__(n_threads, seed=seed, scale=scale)
        self.rounds = rounds

    def setup(self, machine, runtime, arena):
        self._rt = runtime
        self.pos = arena.alloc_word(0, isolate=True)
        self.cnt = arena.alloc_word(0, isolate=True)
        self.data = arena.alloc_word(0, isolate=True)
        runtime.spawn(self._mover, cpu_id=0)
        for attacker in range(1, self.n_threads):
            runtime.spawn(self._attacker, cpu_id=attacker)

    def _compensate(self, t, pre):
        yield t.imstid(self.pos, pre)
        # Fall through: the dispatcher proceeds to roll back.

    def _mover(self, t):
        rt = self._rt
        for _ in range(self.rounds):
            def body(t):
                pre = yield t.load(self.pos)
                yield from rt.register_violation_handler(
                    t, self._compensate, pre)

                def effect(t):
                    yield t.store(self.pos, pre + 1)

                yield from rt.atomic_open(t, effect)
                value = yield t.load(self.data)
                yield t.alu(150)
                yield t.store(self.data, value + 1)
                count = yield t.load(self.cnt)
                yield t.store(self.cnt, count + 1)

            yield from rt.atomic(t, body)
            yield t.alu(9)

    def _attacker(self, t):
        rt = self._rt
        for _ in range(3 * self.rounds):
            def body(t):
                value = yield t.load(self.data)
                yield t.alu(12)
                yield t.store(self.data, value + 1)

            yield from rt.atomic(t, body)
            yield t.alu(7)

    def verify(self, machine):
        pos = machine.memory.read(self.pos)
        cnt = machine.memory.read(self.cnt)
        if pos != cnt:
            raise ReproError(
                f"compensation: POS {pos} != committed count {cnt} "
                f"(effect not exactly-once)")
        if cnt != self.rounds:
            raise ReproError(
                f"compensation: committed count {cnt}, expected "
                f"{self.rounds}")

    def check_final(self, machine, history):
        return check_exact_count(
            "compensated-open-effect",
            machine.memory.read(self.pos),
            machine.memory.read(self.cnt))

    def outcome(self, machine):
        return {
            "pos": machine.memory.read(self.pos),
            "cnt": machine.memory.read(self.cnt),
            "data": machine.memory.read(self.data),
        }


class RequeueWakeupProgram(CheckProgram):
    """A wakeup that rides on the §6b.2 violation-record re-queue rule.

    CPU 0 parks and waits for a wake that only the *victim's* level-1
    violation handler sends.  The attackers are timed so that, on the
    deterministic schedule, the level-1 record is being handled by a
    dispatcher that a nested (level-2) rollback destroys — the §6b.2
    window.  With re-queueing intact the record is re-delivered and the
    handler wakes CPU 0 on every schedule; with the test-only
    ``requeue_enabled`` hook off, the record is dropped and CPU 0 sleeps
    forever (caught by the lost-wakeup oracle as a deadlock).

    Schedules exist (PCT demotion of the victim) where the attackers
    commit before the victim ever reads ``W`` — then no violation fires
    and nobody owes the wake through the handler.  The victim therefore
    tracks *delivery* of the level-1 record (reading ``xvcurrent`` in
    its handlers) and sends a fallback wake after committing **only if
    the record was never delivered**.  Once delivered, responsibility
    sits with the re-queue rule: if the hardware drops the record, the
    wake is rightly lost and the oracle fires.

    Timing margins (cycles are exact under ``timing=False`` and bounded
    by the policies' scheduling window): the victim registers its
    handlers within ~100 cycles, the first attacker fires at ~2000, and
    the victim's inner window is ~6000 long — so the record always finds
    both handlers registered and the victim mid-transaction."""

    name = "requeue"
    waiter_cpus = frozenset({0})
    # Reads xvcurrent through t.isa — hardware state below the level the
    # reference semantics model.
    spec_supported = False

    def __init__(self, n_threads=4, seed=1, scale=1.0):
        super().__init__(4, seed=seed, scale=scale)

    def supports(self, config):
        # Eager requester_stalls resolves the attackers' stores by
        # stalling them against the long-running victim: no commit-time
        # violation, no handler, no scenario.
        return config.detection == LAZY

    def setup(self, machine, runtime, arena):
        self._rt = runtime
        self.w_addr = arena.alloc_word(0, isolate=True)
        self.x_addr = arena.alloc_word(0, isolate=True)
        runtime.spawn(self._waiter, cpu_id=0)
        runtime.spawn(self._victim, cpu_id=1)
        runtime.spawn(self._attacker, self.w_addr, 2000, cpu_id=2)
        runtime.spawn(self._attacker, self.x_addr, 2060, cpu_id=3)

    def _waiter(self, t):
        yield t.alu(5)
        yield O.YieldCpu()   # parks unless a wake token is already banked
        return "woken"

    def _victim(self, t):
        rt = self._rt
        saw_r1 = [False]   # the level-1 (bit 0) record was delivered
        woke = [False]     # the wake handler actually ran

        def wake_handler(t):   # level-1 handler: deliver the wakeup
            woke[0] = True
            yield t.alu(2)
            yield O.Wake(0)
            return RESUME

        def window_handler(t):  # level-2 handler: interruptible window
            if t.isa.xvcurrent & 1:
                saw_r1[0] = True

            def dally(t):
                for _ in range(40):
                    yield t.alu(5)

            yield from rt.atomic_open(t, dally)
            # Fall through: roll the level-2 transaction back.

        def inner(t):           # level 2 (closed-nested)
            yield from rt.register_violation_handler(t, window_handler)
            yield t.load(self.x_addr)
            for _ in range(600):
                yield t.alu(10)

        def body(t):            # level 1
            yield from rt.register_violation_handler(t, wake_handler)
            value = yield t.load(self.w_addr)
            yield from rt.atomic(t, inner)
            return value

        result = yield from rt.atomic(t, body)
        if not woke[0] and not saw_r1[0]:
            # The race never happened on this schedule: the wake is
            # still owed, but not through the re-queue path.
            yield O.Wake(0)
        return result

    def _attacker(self, t, addr, delay, *, _chunk=100):
        for _ in range(delay // _chunk):
            yield t.alu(_chunk)

        def body(t):
            yield t.store(addr, 1)

        yield from self._rt.atomic(t, body)

    def verify(self, machine):
        if machine.cpus[0].result != "woken":
            raise ReproError("requeue: the waiter was never woken")


class CondSyncProgram(CheckProgram, CondSyncWorkload):
    """One producer/consumer pair under the full watch/retry scheduler:
    the condsync workload itself, with the checking metadata."""

    name = "condsync"
    max_cycles = 1_200_000
    waiter_cpus = frozenset({1, 2})
    # The watch/retry scheduler daemon never commits its transaction;
    # the spec models only committing transactions.
    spec_supported = False

    def __init__(self, n_threads=2, seed=1, scale=0.5):
        CondSyncWorkload.__init__(self, n_pairs=1, seed=seed, scale=scale)

    def supports(self, config):
        # The scheduler transaction never commits; under eager detection
        # every producer targeting a watched line stalls against it
        # forever.  The paper's condsync runtime presumes lazy detection.
        return config.detection == LAZY


class IoChaosProgram(CheckProgram):
    """Allocator + transactional I/O under contention (paper §5).

    Each worker, per round, inside one transaction: mallocs a block
    (open-nested, compensated), tags it, writes the tag to a shared log
    file (buffered output, flushed by a commit handler between
    ``xvalidate`` and ``xcommit``), bumps a shared commit counter, and
    frees the block (deferred to commit).  On any schedule — and under
    any *recoverable* fault — the committed counter, the device log and
    the heap must agree:

    * exactly one log record per committed round (``len(log) == CNT``);
    * every block freed: the free list accounts for every byte the heap
      ever broke off (conservation — a leaked compensation shows up
      here).
    """

    name = "iochaos"

    HEAP_WORDS = 512
    BLOCK_WORDS = 4

    def __init__(self, n_threads=3, seed=1, scale=1.0, rounds=3):
        super().__init__(n_threads, seed=seed, scale=scale)
        self.rounds = rounds

    def setup(self, machine, runtime, arena):
        from repro.mem.heap import SharedHeap
        from repro.runtime.alloc import TxAlloc
        from repro.runtime.txio import SimFile, TxIo

        self._rt = runtime
        self.heap = SharedHeap(arena, self.HEAP_WORDS)
        self.alloc = TxAlloc(runtime, self.heap)
        self.io = TxIo(runtime)
        self.log = SimFile(arena, "chaos.log")
        self.cnt = arena.alloc_word(0, isolate=True)
        rng = random.Random(self.seed)
        for worker in range(self.n_threads):
            gaps = [rng.randrange(40) for _ in range(self.rounds)]
            runtime.spawn(self._worker, worker, gaps, cpu_id=worker)

    def _worker(self, t, who, gaps):
        rt = self._rt
        for round_no, gap in enumerate(gaps):
            tag = who * 100 + round_no

            def body(t, tag=tag):
                addr = yield from self.alloc.malloc(t, self.BLOCK_WORDS)
                yield t.store(addr, tag)
                yield from self.io.write(t, self.log, [tag])
                value = yield t.load(self.cnt)
                yield t.alu(10)
                yield t.store(self.cnt, value + 1)
                yield from self.alloc.free(t, addr)

            yield from rt.atomic(t, body)
            yield t.alu(1 + gap)

    def verify(self, machine):
        expected = self.n_threads * self.rounds
        cnt = machine.memory.read(self.cnt)
        if cnt != expected:
            raise ReproError(
                f"iochaos: committed count {cnt}, expected {expected}")

    def _free_bytes(self, machine):
        """Walk the final free list; total bytes (payload + headers)."""
        from repro.common.params import WORD_SIZE
        from repro.mem.heap import _HDR_WORDS

        total = 0
        block = machine.memory.read(self.heap.free_head_addr)
        seen = set()
        while block:
            if block in seen:
                return -1  # cycle: corrupt free list
            seen.add(block)
            size = machine.memory.read(block)
            total += (size + _HDR_WORDS) * WORD_SIZE
            block = machine.memory.read(block + WORD_SIZE)
        return total

    def check_final(self, machine, history):
        cnt = machine.memory.read(self.cnt)
        violations = check_exact_count(
            "iochaos-log-exactly-once", len(self.log.data), cnt)
        brk = machine.memory.read(self.heap.brk_addr)
        violations += check_invariant(
            "iochaos-heap-conserved",
            self._free_bytes(machine) == brk - self.heap.base,
            f"free list holds {self._free_bytes(machine)} bytes but the "
            f"heap broke off {brk - self.heap.base} (leak or corruption)")
        return violations

    def outcome(self, machine):
        return {
            "cnt": machine.memory.read(self.cnt),
            "log": list(self.log.data),
            "brk": machine.memory.read(self.heap.brk_addr),
            "free_bytes": self._free_bytes(machine),
        }


#: Fuzzable programs by name.
# ----------------------------------------------------------------------
# Litmus family: classic 2-CPU shapes, sized for exhaustive exploration.


class LitmusProgram(CheckProgram):
    """Base for the litmus family (docs/checking.md, "Exhaustive
    exploration").

    Litmus programs are the explorer's natural prey: two CPUs, one
    transaction each, *no internal randomness* — the entire behaviour is
    a pure function of the schedule, and the runs are short enough that
    the model checker (:mod:`repro.check.explore`) can enumerate every
    interleaving outright.  The fuzzer runs them too (they are ordinary
    :data:`PROGRAMS` members), which is what lets the differential test
    compare the two drivers on identical ground.
    """

    max_cycles = 100_000

    def __init__(self, n_threads=2, seed=1, scale=1.0):
        super().__init__(2, seed=seed, scale=scale)


class LitmusStoreBufferProgram(LitmusProgram):
    """Store buffering / commit order: ``t0 {x=1; r0=y}``,
    ``t1 {y=1; r1=x}``, one transaction each.

    Serializability orders the two commits, so the later committer's
    read must observe the earlier committer's store: ``r0 == r1 == 0``
    (both transactions read the initial values) is the classic forbidden
    outcome a store-buffered machine without TM ordering would allow.
    """

    name = "litmus-sb"

    def setup(self, machine, runtime, arena):
        self._rt = runtime
        self.x = arena.alloc_word(0, isolate=True)
        self.y = arena.alloc_word(0, isolate=True)
        self.reads = [None, None]
        runtime.spawn(self._worker, 0, self.x, self.y, cpu_id=0)
        runtime.spawn(self._worker, 1, self.y, self.x, cpu_id=1)

    def _worker(self, t, me, mine, other):
        def body(t):
            yield t.store(mine, 1)
            self.reads[me] = yield t.load(other)

        yield from self._rt.atomic(t, body)

    def check_final(self, machine, history):
        return check_invariant(
            "litmus-sb", self.reads != [0, 0],
            f"both transactions read 0 (reads={self.reads}): no commit "
            "order can explain it")

    def outcome(self, machine):
        return {
            "reads": list(self.reads),
            "mem": [machine.memory.read(self.x),
                    machine.memory.read(self.y)],
        }


class LitmusPublicationProgram(LitmusProgram):
    """Message passing / publication: ``t0 {data=42; flag=1}``,
    ``t1 {r_flag=flag; r_data=data}``, one transaction each.

    If the reader sees the flag set it must also see the data — the
    publication idiom every §5 data structure relies on.  A machine
    that let the flag store commit without the data store (torn commit,
    write reordering) breaks it.
    """

    name = "litmus-mp"

    def setup(self, machine, runtime, arena):
        self._rt = runtime
        self.data = arena.alloc_word(0, isolate=True)
        self.flag = arena.alloc_word(0, isolate=True)
        self.reads = [None, None]

        def writer(t):
            def body(t):
                yield t.store(self.data, 42)
                yield t.store(self.flag, 1)

            yield from runtime.atomic(t, body)

        def reader(t):
            def body(t):
                self.reads[0] = yield t.load(self.flag)
                self.reads[1] = yield t.load(self.data)

            yield from runtime.atomic(t, body)

        runtime.spawn(writer, cpu_id=0)
        runtime.spawn(reader, cpu_id=1)

    def check_final(self, machine, history):
        flag, data = self.reads
        return check_invariant(
            "litmus-mp", not (flag == 1 and data != 42),
            f"reader saw flag=1 but data={data}: publication tore")

    def outcome(self, machine):
        return {
            "reads": list(self.reads),
            "mem": [machine.memory.read(self.data),
                    machine.memory.read(self.flag)],
        }


class LitmusIncrementProgram(LitmusProgram):
    """The minimal contended increment: two CPUs, one ``+1`` each.

    The smallest program whose conflict the two detection modes resolve
    differently — a lazy machine lets both run and violates the loser at
    commit, an eager ``requester_stalls`` machine stalls the second
    writer inside its transaction — so exploring it under ``eager-wb``
    vs ``lazy-wb-assoc`` exercises both arbitration paths on an
    identical program.  Either way the counter must end at 2.
    """

    name = "litmus-inc"

    def setup(self, machine, runtime, arena):
        self._rt = runtime
        self.addr = arena.alloc_word(0, isolate=True)
        for worker in range(2):
            runtime.spawn(self._worker, cpu_id=worker)

    def _worker(self, t):
        def body(t):
            value = yield t.load(self.addr)
            yield t.store(self.addr, value + 1)

        yield from self._rt.atomic(t, body)

    def check_final(self, machine, history):
        final = machine.memory.read(self.addr)
        return check_invariant(
            "litmus-inc", final == 2,
            f"final counter {final}, expected 2 (lost increment)")

    def outcome(self, machine):
        return {"counter": machine.memory.read(self.addr)}


class LitmusLoadBufferProgram(LitmusProgram):
    """Load buffering: ``t0 {r0=y; x=1}``, ``t1 {r1=x; y=1}``.

    With atomic transactions the admissible set is stronger than any
    hardware LB rule: whichever transaction serializes second must read
    the first one's store, so exactly one of the reads is 1 — both
    ``(0, 0)`` (reads reordered past writes) and the classic ``(1, 1)``
    (causality cycle) are forbidden.
    """

    name = "litmus-lb"

    def setup(self, machine, runtime, arena):
        self._rt = runtime
        self.x = arena.alloc_word(0, isolate=True)
        self.y = arena.alloc_word(0, isolate=True)
        self.reads = [None, None]
        runtime.spawn(self._worker, 0, self.x, self.y, cpu_id=0)
        runtime.spawn(self._worker, 1, self.y, self.x, cpu_id=1)

    def _worker(self, t, me, mine, other):
        def body(t):
            self.reads[me] = yield t.load(other)
            yield t.store(mine, 1)

        yield from self._rt.atomic(t, body)

    def check_final(self, machine, history):
        return check_invariant(
            "litmus-lb", sorted(self.reads) == [0, 1],
            f"reads={self.reads}: transactions must serialize, so "
            "exactly one read observes the other's store")

    def outcome(self, machine):
        return {
            "reads": list(self.reads),
            "mem": [machine.memory.read(self.x),
                    machine.memory.read(self.y)],
        }


class LitmusCoRRProgram(LitmusProgram):
    """Coherent read-read: a writer transaction ``{x=1}`` against a
    reader running *two successive* transactions ``{r0=x}``, ``{r1=x}``.

    Serializability over three transactions forbids exactly one outcome:
    ``(1, 0)`` — once a committed read observes the store, a later
    transaction on the same CPU cannot un-observe it.
    """

    name = "litmus-corr"

    def setup(self, machine, runtime, arena):
        self._rt = runtime
        self.x = arena.alloc_word(0, isolate=True)
        self.reads = [None, None]

        def writer(t):
            def body(t):
                yield t.store(self.x, 1)

            yield from runtime.atomic(t, body)

        def reader(t):
            for slot in range(2):
                def body(t, slot=slot):
                    self.reads[slot] = yield t.load(self.x)

                yield from runtime.atomic(t, body)
                yield t.alu(3)

        runtime.spawn(writer, cpu_id=0)
        runtime.spawn(reader, cpu_id=1)

    def check_final(self, machine, history):
        return check_invariant(
            "litmus-corr", self.reads != [1, 0],
            f"reads={self.reads}: a later read un-observed a committed "
            "store (coherence violation)")

    def outcome(self, machine):
        return {
            "reads": list(self.reads),
            "mem": [machine.memory.read(self.x)],
        }


class LitmusTokenHandoffProgram(LitmusProgram):
    """Park/wake handoff: ``t0 {x=1}; wake(1)`` against
    ``t1: yieldcpu; {r=x}``.

    The wake token must close the race in both directions: if t1 parks
    first the wake unparks it, if the wake lands first the token is
    banked and t1's ``yieldcpu`` is a no-op.  Either way t1's
    transaction runs strictly after t0's commit, so the *only*
    admissible outcome is ``r == 1`` — the spec-enumerated set for this
    program is a singleton, which makes it the sharpest drain gate in
    the family.
    """

    name = "litmus-token-handoff"
    waiter_cpus = frozenset({1})

    def setup(self, machine, runtime, arena):
        self._rt = runtime
        self.x = arena.alloc_word(0, isolate=True)
        self.reads = [None]

        def publisher(t):
            def body(t):
                yield t.store(self.x, 1)

            yield from runtime.atomic(t, body)
            yield O.Wake(1)

        def consumer(t):
            yield O.YieldCpu()  # no-op if the wake token is banked

            def body(t):
                self.reads[0] = yield t.load(self.x)

            yield from runtime.atomic(t, body)

        runtime.spawn(publisher, cpu_id=0)
        runtime.spawn(consumer, cpu_id=1)

    def check_final(self, machine, history):
        return check_invariant(
            "litmus-token-handoff", self.reads == [1],
            f"consumer read {self.reads[0]} after the handoff wake; "
            "only 1 is admissible")

    def outcome(self, machine):
        return {
            "reads": list(self.reads),
            "mem": [machine.memory.read(self.x)],
        }


#: The litmus family, in canonical order (the explore CLI's default).
LITMUS_PROGRAMS = ("litmus-sb", "litmus-mp", "litmus-inc", "litmus-lb",
                   "litmus-corr", "litmus-token-handoff")


PROGRAMS = {
    cls.name: cls
    for cls in (
        CounterProgram,
        StrongAtomicityProgram,
        BankProgram,
        WriteSkewProgram,
        NestedOpenProgram,
        CompensationProgram,
        RequeueWakeupProgram,
        CondSyncProgram,
        IoChaosProgram,
        LitmusStoreBufferProgram,
        LitmusPublicationProgram,
        LitmusIncrementProgram,
        LitmusLoadBufferProgram,
        LitmusCoRRProgram,
        LitmusTokenHandoffProgram,
    )
}


def make_program(name, seed=1):
    """Instantiate a fuzz program by registry name."""
    try:
        cls = PROGRAMS[name]
    except KeyError:
        raise ValueError(
            f"unknown check program {name!r}; "
            f"choose from {sorted(PROGRAMS)}") from None
    return cls(seed=seed)
