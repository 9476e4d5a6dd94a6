"""Cycle accounting: attribute every simulated cycle to one bucket.

The paper's performance story is about *where cycles go* — §7's
commit/abort overheads, the work thrown away by violations, the cost of
running software handlers.  The aggregate counters can't say that; this
profiler can, and it is checkable: the buckets of one run must sum to
exactly ``cycles × n_cpus``.

Buckets (per CPU):

* ``committed`` — user work that survived: non-transactional execution
  plus speculative work whose transaction eventually published.
* ``wasted`` — speculative work discarded by a rollback (or left
  in-flight when the run ended).
* ``handler`` — user-level cycles spent inside violation/abort
  dispatcher frames (the paper's handler-management overhead).
* ``overhead`` — the transactional bookkeeping instructions themselves:
  ``xbegin``/``xvalidate``/``xcommit`` (commit arbitration and
  broadcast), ``xrwsetclear`` (rollback undo work), and the rest of the
  Table 2 management ops.
* ``idle`` — cycles a CPU spent not executing: parked on a yield,
  stalled on a NACK/commit token, descheduled, or finished early.

Every cycle is charged as it happens by shadowing ``cpu.execute`` (a
per-CPU executor slot, so an unprofiled machine pays nothing), and
speculative work is tracked by subscribing to the HTM's ``begin`` /
``commit`` / ``rollback_to`` / ``abandon_all`` events
(:mod:`repro.obs.observer`): a begin marks the speculative
accumulator, an outer/open commit retires the span above its mark into
``committed``, a rollback moves it into ``wasted``.  Idle is measured
directly from the gaps between a CPU's busy intervals — *not* computed
as a residual — which is what gives the conservation invariant teeth:
any bookkeeping slip breaks ``sum(buckets) == cycles × n_cpus`` instead
of hiding in a slack term.
"""

from __future__ import annotations

import dataclasses

from repro.obs.observer import Observer
from repro.sim import ops as O

#: Transaction-management op classes; their cycles are ``overhead``.
_OVERHEAD_OPS = (
    O.XBegin, O.XValidate, O.XCommit, O.XAbort, O.XRwSetClear,
    O.XRegRestore, O.XVRet, O.XEnViolRep, O.XVClear,
)

BUCKETS = ("committed", "wasted", "handler", "overhead", "idle")


class _CpuAccount:
    """Mutable per-CPU books while the profiler is attached."""

    __slots__ = ("committed", "wasted", "handler", "overhead", "idle",
                 "spec", "marks", "depth", "last_end", "last_bucket")

    #: Snapshot state (repro.sim.snapshot): all of the books.
    _state = __slots__

    def __init__(self):
        self.committed = 0
        self.wasted = 0
        self.handler = 0
        self.overhead = 0
        self.idle = 0
        #: Speculative user cycles not yet committed or discarded.
        self.spec = 0
        #: ``spec`` watermark at each live nesting level's begin.
        self.marks = []
        self.depth = 0
        #: End of this CPU's last busy interval (cycle time).
        self.last_end = 0
        self.last_bucket = None


def _take_back(books, last_bucket, amount):
    """Remove ``amount`` cycles charged past the machine's final time
    from the closed ``books`` (the last op's latency can overshoot the
    end of the run).  Prefer the bucket charged last — that is where
    the overshoot lives."""
    for bucket in (last_bucket, "overhead", "handler", "wasted",
                   "committed", "idle"):
        if bucket is None:
            continue
        take = min(amount, books[bucket])
        books[bucket] -= take
        amount -= take
        if not amount:
            return
    # Books already short by ``amount`` — leave it to the
    # conservation check to report.


@dataclasses.dataclass(frozen=True)
class CycleAccount:
    """The finished books: per-CPU buckets plus the invariant verdict."""

    cycles: int
    n_cpus: int
    per_cpu: tuple   # one {bucket: cycles} dict per CPU

    @property
    def totals(self):
        out = {bucket: 0 for bucket in BUCKETS}
        for books in self.per_cpu:
            for bucket in BUCKETS:
                out[bucket] += books[bucket]
        return out

    @property
    def grand_total(self):
        return sum(self.totals.values())

    @property
    def budget(self):
        return self.cycles * self.n_cpus

    def problems(self):
        """Conservation violations, as human-readable strings."""
        out = []
        for cpu, books in enumerate(self.per_cpu):
            negative = {b: v for b, v in books.items() if v < 0}
            if negative:
                out.append(f"cpu{cpu}: negative bucket(s) {negative}")
            subtotal = sum(books.values())
            if subtotal != self.cycles:
                out.append(
                    f"cpu{cpu}: buckets sum to {subtotal}, "
                    f"not {self.cycles} cycles")
        if self.grand_total != self.budget:
            out.append(
                f"sum(buckets) == {self.grand_total}, expected "
                f"cycles x cpus == {self.cycles} x {self.n_cpus} "
                f"== {self.budget}")
        return out

    @property
    def balanced(self):
        return not self.problems()

    def share(self, bucket):
        """``bucket``'s fraction of the total cycle budget."""
        return self.totals[bucket] / self.budget if self.budget else 0.0

    def as_dict(self):
        return {
            "cycles": self.cycles,
            "n_cpus": self.n_cpus,
            "totals": self.totals,
            "per_cpu": [dict(books) for books in self.per_cpu],
            "balanced": self.balanced,
        }


class CycleProfiler(Observer):
    """Books every cycle of a machine until detached.

    Each CPU's ``execute`` slot is shadowed to charge cycles; the HTM
    events move speculative work between buckets."""

    #: Snapshot state (repro.sim.snapshot), as a book of the machine;
    #: the per-CPU books are kept for the bound CPUs only.
    _state = ("_cpu", "_account")
    _per_cpu = ("_cpu",)

    def __init__(self, machine):
        self.machine = machine
        self._cpu = [_CpuAccount() for _ in machine.cpus]
        self._account = None
        self._saved_execute = [self._wrap_execute(cpu)
                               for cpu in machine.cpus]
        machine.observe(self)

    def _wrap_execute(self, cpu):
        books = self._cpu[cpu.cpu_id]
        # ``cpu.execute`` is a slot holding the active executor (the
        # dispatch-table step, or whatever shadow an earlier instrument
        # installed); save it so detach can restore it exactly.
        prev = cpu.execute

        def execute(op, now, _orig=prev):
            # Account the gap since this CPU's last busy interval first,
            # so an exception (CapacityAbort) leaves the books balanced.
            if now > books.last_end:
                books.idle += now - books.last_end
                books.last_end = now
            pre_depth = books.depth
            pre_dispatch = cpu.dispatch_depth
            outcome = _orig(op, now)
            if outcome.stall:
                return outcome
            latency = outcome.latency
            charged = latency if latency > 1 else 1
            if isinstance(op, _OVERHEAD_OPS):
                books.overhead += charged
                books.last_bucket = "overhead"
            elif pre_dispatch:
                books.handler += charged
                books.last_bucket = "handler"
            elif pre_depth:
                books.spec += charged
                books.last_bucket = "spec"
            else:
                books.committed += charged
                books.last_bucket = "committed"
            books.last_end = now + charged
            return outcome

        cpu.execute = execute
        return (cpu, prev, execute)

    # ------------------------------------------------------------------

    def on_begin(self, cpu_id, open_, now, level):
        books = self._cpu[cpu_id]
        books.marks.append(books.spec)
        books.depth += 1

    def on_commit(self, cpu_id, result, level, began_at, reads, writes):
        books = self._cpu[cpu_id]
        kind = result.kind
        if kind == "outer":
            books.committed += books.spec
            books.spec = 0
            books.marks.clear()
            books.depth = 0
        elif kind == "open":
            mark = books.marks.pop() if books.marks else 0
            books.committed += books.spec - mark
            books.spec = mark
            books.depth = max(0, books.depth - 1)
        elif kind == "closed":
            if books.marks:
                books.marks.pop()
            books.depth = max(0, books.depth - 1)
        # "flattened" commits end no real level: nothing moves.

    def on_rollback_to(self, cpu_id, target_level, now, work):
        books = self._cpu[cpu_id]
        if not 1 <= target_level <= len(books.marks):
            return
        mark = books.marks[target_level - 1]
        books.wasted += books.spec - mark
        books.spec = mark
        del books.marks[target_level:]
        books.depth = target_level

    def on_abandon_all(self, cpu_id, work):
        books = self._cpu[cpu_id]
        books.wasted += books.spec
        books.spec = 0
        books.marks.clear()
        books.depth = 0

    # ------------------------------------------------------------------

    def detach(self):
        """Unsubscribe and restore each CPU's executor; idempotent."""
        self.machine.unobserve(self)
        for cpu, prev, wrapper in self._saved_execute:
            # Restoring the saved executor removes the shadow and brings
            # back the zero-overhead dispatch path (or whatever shadow an
            # earlier instrument had installed).
            if cpu.execute is wrapper:
                cpu.execute = prev
        self._saved_execute = []


    # ------------------------------------------------------------------

    def account(self, cycles=None):
        """Close the books against the machine's final time and return
        the frozen :class:`CycleAccount` (idempotent)."""
        if self._account is not None:
            return self._account
        if cycles is None:
            cycles = self.machine.now
        per_cpu = []
        for books in self._cpu:
            # Closed on a copy: the live books stay as the run left them
            # (a CPU that never ran keeps its just-built books).
            closed = {bucket: getattr(books, bucket) for bucket in BUCKETS}
            # Work still speculative when the run ended never committed.
            closed["wasted"] += books.spec
            last_bucket = books.last_bucket
            if last_bucket == "spec":
                last_bucket = "wasted"
            if books.last_end > cycles:
                # The final op's latency ran past the end of simulated
                # time; those cycles were never lived.
                _take_back(closed, last_bucket, books.last_end - cycles)
            elif books.last_end < cycles:
                closed["idle"] += cycles - books.last_end
            per_cpu.append(closed)
        self._account = CycleAccount(
            cycles=cycles, n_cpus=len(self._cpu), per_cpu=tuple(per_cpu))
        return self._account
