"""Transactional histories and the recorder that builds them.

A *history* is the list of transactions a run committed, each with the
tracking units it read and wrote (at the hardware's own conflict
granularity) and a global commit sequence number.  The serializability
oracle (:mod:`repro.check.oracles`) checks the precedence graph over such
a history; this module is only concerned with building it faithfully.

:class:`HistoryRecorder` is an :class:`~repro.obs.observer.Observer`
of a live :class:`~repro.sim.engine.Machine`: it subscribes to the
HTM's ``begin / load / store / release / commit / rollback_to /
abandon_all`` events and the engine's dispatcher ``outcome``.
Recording rules, matching the paper's semantics:

* Every hardware nesting level gets a frame.  A **closed-nested** commit
  merges the child's read/write sets (and read-time intervals) into its
  parent: the child is not an isolation unit of its own.
* An **open-nested** commit publishes a record of its own and leaves the
  parent's footprint untouched (§4.5 — the parent is *not* responsible
  for the child's effects, which is the whole point of open nesting).
* A **non-transactional store** on a lazy machine is a one-word commit
  (strong atomicity), so it is recorded as a singleton committed
  transaction; likewise a non-transactional load is a singleton reader.
  This folds strong-atomicity checking into plain serializability over
  the union of transactional and non-transactional accesses.
* Rolled-back levels drop out entirely (their restarts get fresh txids).

Two waivers keep the oracle sound on intentionally non-serializable
software: a frame whose violation was answered with RESUME (the condsync
scheduler ignores conflicts by design, §5) and a frame that used the
``release`` instruction (§4.7 deliberately forfeits tracking) are marked
``waived`` and excluded from the precedence graph.
"""

from __future__ import annotations

import dataclasses

from repro.htm.conflict import PROCEED
from repro.isa.dispatch import HandlerOutcome
from repro.obs.observer import Observer


@dataclasses.dataclass
class TxRecord:
    """One transaction (or non-transactional singleton access)."""

    txid: int
    cpu: int
    level: int
    open: bool
    begin_cycle: int
    #: unit -> [first read seq, last read seq]
    reads: dict = dataclasses.field(default_factory=dict)
    #: units written
    writes: set = dataclasses.field(default_factory=set)
    status: str = "active"           # active | committed | aborted
    kind: str = None                 # outer | open | nontx (when committed)
    commit_seq: int = None
    commit_cycle: int = None
    #: A violation was answered with RESUME while this frame was live:
    #: the software chose to ignore a conflict, so serializability is not
    #: promised for this transaction (condsync scheduler, §5).
    resumed: bool = False
    #: The frame dropped read-set entries via ``release`` (§4.7).
    released: bool = False

    @property
    def waived(self):
        """Excluded from the serializability check by design."""
        return self.resumed or self.released

    def note_read(self, unit, seq):
        span = self.reads.get(unit)
        if span is None:
            self.reads[unit] = [seq, seq]
        else:
            span[1] = seq

    def absorb(self, child):
        """Closed-nested commit: fold ``child``'s footprint into ours."""
        for unit, (first, last) in child.reads.items():
            span = self.reads.get(unit)
            if span is None:
                self.reads[unit] = [first, last]
            else:
                span[0] = min(span[0], first)
                span[1] = max(span[1], last)
        self.writes |= child.writes
        self.resumed |= child.resumed
        self.released |= child.released

    def __str__(self):
        tag = self.kind or self.status
        flags = "".join(
            flag for flag, on in (("R", self.resumed), ("E", self.released))
            if on)
        return (f"tx{self.txid}@cpu{self.cpu} {tag}"
                f"{'[' + flags + ']' if flags else ''} "
                f"r={sorted(self.reads)} w={sorted(self.writes)} "
                f"seq={self.commit_seq}")


class History:
    """The committed (and, for diagnostics, aborted) transactions of one
    run, in commit order."""

    #: Snapshot state (repro.sim.snapshot).
    _state = ("committed", "aborted")

    def __init__(self):
        self.committed = []
        self.aborted = []

    def commit_order(self):
        return [record.txid for record in self.committed]

    def of_kind(self, kind):
        return [r for r in self.committed if r.kind == kind]

    def signature(self):
        """Hashable fingerprint of the committed history; two runs with
        the same policy and seed must produce equal signatures."""
        return tuple(
            (r.cpu, r.kind, r.commit_seq,
             tuple(sorted((u, f, l) for u, (f, l) in r.reads.items())),
             tuple(sorted(r.writes)))
            for r in self.committed)

    def __len__(self):
        return len(self.committed)


class HistoryRecorder(Observer):
    """Builds a :class:`History` from a live machine.

    Attach before the workload's ``setup`` populates memory-writing
    threads; detach (or use as a context manager) before inspecting.
    """

    #: Snapshot state (repro.sim.snapshot), as a book of the machine.
    _state = ("history", "_frames", "_seq")

    def __init__(self, machine):
        self.machine = machine
        self.history = History()
        #: Per CPU, the stack of live frames, parallel to
        #: ``htm.states[cpu].levels``.
        self._frames = [[] for _ in machine.cpus]
        self._seq = 0
        machine.observe(self)

    # ------------------------------------------------------------------

    def _next_seq(self):
        self._seq += 1
        return self._seq

    def _singleton(self, cpu_id, unit, is_write):
        """A non-transactional access as a one-access committed tx."""
        seq = self._next_seq()
        record = TxRecord(
            txid=-seq, cpu=cpu_id, level=0, open=False,
            begin_cycle=self.machine.now, status="committed", kind="nontx",
            commit_seq=seq, commit_cycle=self.machine.now)
        if is_write:
            record.writes.add(unit)
        else:
            record.reads[unit] = [seq, seq]
        self.history.committed.append(record)

    def _push_frame(self, cpu_id, level, open_):
        state = self.machine.htm.states[cpu_id]
        self._frames[cpu_id].append(TxRecord(
            txid=state.levels[-1].txid, cpu=cpu_id, level=level,
            open=open_, begin_cycle=self.machine.now))

    def _abort_frame(self, frame):
        frame.status = "aborted"
        self.history.aborted.append(frame)

    # ------------------------------------------------------------------

    def on_begin(self, cpu_id, open_, now, level):
        self._push_frame(cpu_id, level, open_)

    def on_load(self, cpu_id, addr, unit, level, action):
        if action == PROCEED:
            frames = self._frames[cpu_id]
            if frames:
                frames[-1].note_read(unit, self._next_seq())
            else:
                self._singleton(cpu_id, unit, is_write=False)

    def on_store(self, cpu_id, addr, unit, level, action):
        if action == PROCEED:
            frames = self._frames[cpu_id]
            if frames:
                self._next_seq()
                frames[-1].writes.add(unit)
            else:
                self._singleton(cpu_id, unit, is_write=True)

    def on_release(self, cpu_id, addr, released):
        frames = self._frames[cpu_id]
        if released and frames:
            frames[-1].released = True

    def on_commit(self, cpu_id, result, level, began_at, reads, writes):
        if result.kind == "flattened":
            return
        frames = self._frames[cpu_id]
        frame = frames.pop()
        if result.kind == "closed":
            frames[-1].absorb(frame)
        else:
            frame.status = "committed"
            frame.kind = result.kind
            frame.commit_seq = self._next_seq()
            frame.commit_cycle = self.machine.now
            self.history.committed.append(frame)

    def on_rollback_to(self, cpu_id, target_level, now, work):
        frames = self._frames[cpu_id]
        while len(frames) >= target_level:
            self._abort_frame(frames.pop())
        # The hardware restarted the target as a fresh transaction.
        state = self.machine.htm.states[cpu_id]
        self._push_frame(cpu_id, target_level, state.levels[-1].open)

    def on_abandon_all(self, cpu_id, work):
        frames = self._frames[cpu_id]
        while frames:
            self._abort_frame(frames.pop())

    def on_outcome(self, cpu, outcome):
        if (isinstance(outcome, HandlerOutcome)
                and outcome.kind == "resume"):
            # The software chose to keep running despite a conflict:
            # every live frame of this CPU loses its serializability
            # promise (the condsync scheduler's RESUME, §5).
            for frame in self._frames[cpu.cpu_id]:
                frame.resumed = True
