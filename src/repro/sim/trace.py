"""Structured event tracing for the simulated machine.

A :class:`Tracer` attaches to a :class:`~repro.sim.engine.Machine` and
records architectural events — transaction begins, commits, violation
posts and deliveries, handler dispatches, rollbacks, parks/wakes — as
typed records with timestamps.  It is the debugging instrument for
everything the paper's mechanisms make subtle (who violated whom, at
which nesting level, which handler ran, what got rolled back), and
several regression tests assert against traces directly.

Usage::

    machine = Machine(config)
    tracer = Tracer(machine, kinds={"commit", "violation"})
    ... run ...
    for event in tracer.events:
        print(event)
    tracer.detach()

Events go to a pluggable *sink* (:mod:`repro.obs.sinks`).  The default
is a bounded in-memory :class:`~repro.obs.sinks.RingSink` keeping the
first ``limit`` events — overflow is counted in :attr:`Tracer.dropped`,
never silently swallowed.  Pass ``sink=`` to stream instead: a
:class:`~repro.obs.sinks.JsonlSink` for campaign-length traces, a
:class:`~repro.obs.sinks.ChromeTraceSink` for a Perfetto-loadable
timeline, or a :class:`~repro.obs.sinks.TeeSink` of several.

A tracer is a plain :class:`~repro.obs.observer.Observer`: it
subscribes to the machine's begin / commit / rollback / violation /
dispatch / wake / park / fault events, so ``detach`` is exact in any
order with any other observer, and a machine with no tracer attached
pays nothing beyond its empty subscriber tuples.

``fault`` events record injections by an attached
:class:`repro.faults.FaultInjector`; on a machine without one the kind
simply never fires.
"""

from __future__ import annotations

import dataclasses

from repro.obs.observer import Observer
from repro.obs.sinks import RingSink


@dataclasses.dataclass(frozen=True)
class TraceEvent:
    """One architectural event."""

    cycle: int
    kind: str       # begin | commit | violation | delivery | dispatch
    #                 | rollback | wake | park | fault
    cpu: int
    detail: dict

    def __str__(self):
        parts = ", ".join(f"{k}={v}" for k, v in sorted(self.detail.items()))
        return f"[{self.cycle:>8}] cpu{self.cpu} {self.kind:<9} {parts}"


#: All traceable event kinds.
ALL_KINDS = frozenset(
    {"begin", "commit", "violation", "delivery", "dispatch", "rollback",
     "wake", "park", "fault"})


class Tracer(Observer):
    """Records machine events until detached."""

    def __init__(self, machine, kinds=None, limit=100_000, sink=None):
        self.machine = machine
        self.kinds = frozenset(kinds) if kinds is not None else ALL_KINDS
        unknown = self.kinds - ALL_KINDS
        if unknown:
            raise ValueError(f"unknown trace kinds: {sorted(unknown)}")
        self.limit = limit
        self.sink = sink if sink is not None else RingSink(limit,
                                                           mode="head")
        machine.observe(self)

    @property
    def events(self):
        """The sink's buffered events ([] for write-only sinks)."""
        return list(getattr(self.sink, "events", ()))

    @property
    def dropped(self):
        """Events the sink discarded for capacity (0 if unbounded)."""
        return getattr(self.sink, "dropped", 0)

    # ------------------------------------------------------------------

    def _emit(self, kind, cpu, **detail):
        if kind in self.kinds:
            self.sink.emit(TraceEvent(
                cycle=self.machine.now, kind=kind, cpu=cpu, detail=detail))

    def on_begin(self, cpu_id, open_, now, level):
        self._emit("begin", cpu_id, level=level, open=bool(open_))

    def on_commit(self, cpu_id, result, level, began_at, reads, writes):
        if result.kind in ("outer", "open"):
            self._emit("commit", cpu_id, what=result.kind,
                       words=len(result.written_words))
        else:
            self._emit("commit", cpu_id, what=result.kind)

    def on_rollback_to(self, cpu_id, target_level, now, work):
        self._emit("rollback", cpu_id, level=target_level)

    def on_violation(self, violation):
        self._emit("violation", violation.victim, mask=violation.mask,
                   addr=violation.addr, source=violation.source)

    def on_dispatch(self, cpu, kind):
        if kind == "violation":
            self._emit("delivery", cpu.cpu_id, mask=cpu.isa.xvcurrent,
                       addr=cpu.isa.xvaddr)
        self._emit("dispatch", cpu.cpu_id, what=kind,
                   depth=cpu.dispatch_depth)

    def on_wake(self, cpu_id):
        self._emit("wake", cpu_id, state=self.machine.cpus[cpu_id].state)

    def on_park(self, cpu):
        self._emit("park", cpu.cpu_id,
                   depth=self.machine.htm.depth(cpu.cpu_id))

    def on_fault(self, kind, cpu_id, detail):
        self._emit("fault", cpu_id, what=kind, **detail)


    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def of_kind(self, kind):
        return [e for e in self.events if e.kind == kind]

    def for_cpu(self, cpu_id):
        return [e for e in self.events if e.cpu == cpu_id]

    def between(self, start, end):
        return [e for e in self.events if start <= e.cycle <= end]

    def format(self, kinds=None):
        """Render the (optionally filtered) trace as text."""
        selected = self.events
        if kinds is not None:
            wanted = frozenset(kinds)
            selected = [e for e in selected if e.kind in wanted]
        lines = [str(e) for e in selected]
        if self.dropped:
            lines.append(
                f"... {self.dropped} more events dropped at the sink's "
                f"capacity")
        return "\n".join(lines)
