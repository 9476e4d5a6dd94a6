"""Pluggable ready-CPU scheduling policies for the engine.

The engine's main loop repeatedly picks one CPU from the runnable set and
steps it.  The *default* pick — the runnable CPU with the smallest local
time, ties broken by CPU id — makes every run bit-for-bit deterministic,
which is what the paper's evaluation numbers rely on.  But determinism is
also a blind spot: the subtle bugs in DESIGN.md §6b (lost wakeups,
re-queued violation records, at-most-once compensation) were all
*schedule-dependent*.  This module factors the pick into a
:class:`SchedulePolicy` so the checking layer (:mod:`repro.check`) can
explore other interleavings:

* :class:`DeterministicPolicy` — the historical behaviour, and the
  default; golden numbers depend on it staying bit-for-bit identical.
* :class:`RandomPolicy` — seeded uniform choice among the CPUs within a
  bounded window of the earliest local time.
* :class:`PriorityPolicy` — PCT-style priority scheduling (Burckhardt et
  al., "A Randomized Scheduler with Probabilistic Guarantees of Finding
  Bugs"): each CPU gets a random static priority, and at ``depth`` random
  change-points the currently-chosen CPU is demoted below everyone else.

Both randomized policies record where each pick departs from the
deterministic one (:class:`RecordingPolicy`): the deviation list that
:class:`ControlledPolicy` forces to replay the run.

Every policy other than the deterministic one restricts its choice to
CPUs whose ``resume_at`` lies within ``window`` cycles of the earliest
runnable ``resume_at``.  The window is what guarantees progress under
adversarial choice: a CPU that is never picked keeps its ``resume_at``
fixed while the favoured CPUs advance theirs, so after at most ``window``
cycles of virtual time the laggard is the *only* in-window candidate and
must be scheduled.  (Spin loops — e.g. the condsync ack spin — therefore
cannot starve the thread they are waiting on.)

Schedules are reproducible: the same ``(policy name, seed)`` pair always
yields the same sequence of choices for the same program, because all
randomness comes from ``random.Random(seed)`` streams and per-CPU
priorities are derived from ``seed`` and the CPU id alone (never from
hash ordering or encounter order).
"""

from __future__ import annotations

import random
import zlib

#: Default bound (cycles) on how far ahead of the earliest runnable CPU a
#: randomized policy may schedule.  Small enough that spin loops make
#: their partners runnable promptly, large enough to reorder commits.
DEFAULT_WINDOW = 250


def window_candidates(runnable, window):
    """The runnable CPUs within ``window`` cycles of the earliest one,
    in deterministic (resume_at, cpu_id) order."""
    earliest = min(cpu.resume_at for cpu in runnable)
    candidates = [cpu for cpu in runnable
                  if cpu.resume_at <= earliest + window]
    candidates.sort(key=lambda cpu: (cpu.resume_at, cpu.cpu_id))
    return candidates


class SchedulePolicy:
    """Strategy interface: pick the next CPU to step."""

    #: Registry name (see :func:`make_policy`).
    name = "abstract"

    #: True if the engine may serve this policy from its heap-backed
    #: ready queue instead of calling :meth:`choose` with a freshly
    #: scanned runnable list.  Only valid when the policy's pick is
    #: exactly min-(resume_at, cpu_id) — the heap's order.
    uses_ready_heap = False

    def choose(self, runnable):
        """Return one CPU from the non-empty list ``runnable``."""
        raise NotImplementedError


class DeterministicPolicy(SchedulePolicy):
    """The engine's historical schedule: smallest local time wins, ties
    break by CPU id.  Bit-for-bit identical to the inlined tie-break the
    engine shipped with; the golden-number tests pin this.

    ``uses_ready_heap`` lets the engine serve this order from its
    (resume_at, cpu_id) heap in O(log n) rather than scanning every CPU
    per step; :meth:`choose` remains the executable specification (the
    equivalence test in tests/test_schedule_policies.py runs both)."""

    name = "det"
    uses_ready_heap = True

    def choose(self, runnable):
        return min(runnable, key=lambda cpu: (cpu.resume_at, cpu.cpu_id))


#: Steps of a recorded schedule buffered before they are compressed.
RECORD_BLOCK = 1 << 16


class RecordingPolicy(SchedulePolicy):
    """A randomized policy that records its schedule as it runs.

    :meth:`choose` takes the in-window candidates and calls the
    subclass's own :meth:`pick` among them.  The record holds one byte
    per step: 0 where the pick was the first candidate (the
    deterministic pick), else the chosen CPU id plus one.  It is
    zlib-compressed a block of :data:`RECORD_BLOCK` steps at a time,
    because a livelocked run deviates at millions of steps.
    """

    def __init__(self, window=DEFAULT_WINDOW):
        self.window = window
        self._tail = bytearray()
        self._zip = zlib.compressobj()
        self._packed = []

    def pick(self, candidates):
        """Return one CPU from the in-window ``candidates``."""
        raise NotImplementedError

    def choose(self, runnable):
        candidates = window_candidates(runnable, self.window)
        chosen = self.pick(candidates)
        tail = self._tail
        tail.append(0 if chosen is candidates[0] else chosen.cpu_id + 1)
        if len(tail) == RECORD_BLOCK:
            self._packed.append(self._zip.compress(tail))
            tail.clear()
        return chosen

    @property
    def schedule(self):
        """The schedule recorded so far, as one zlib stream."""
        zipper = self._zip.copy()
        return (b"".join(self._packed) + zipper.compress(self._tail)
                + zipper.flush())


def schedule_deviations(schedule):
    """The ``(step, cpu)`` deviation list of a recorded schedule.

    ``schedule`` is a :attr:`RecordingPolicy.schedule`."""
    codes = zlib.decompress(schedule) if schedule else b""
    return tuple((step, code - 1)
                 for step, code in enumerate(codes) if code)


class RandomPolicy(RecordingPolicy):
    """Seeded uniform choice among the in-window candidates."""

    name = "random"

    def __init__(self, seed=0, window=DEFAULT_WINDOW):
        super().__init__(window)
        self._rng = random.Random(seed)

    def pick(self, candidates):
        return self._rng.choice(candidates)


class SchedulePruned(Exception):
    """Raised by :class:`ControlledPolicy` when every in-window candidate
    is in the sleep set: the continuation from this state is provably
    covered by a sibling branch, so the run is abandoned.

    Deliberately *not* a :class:`~repro.common.errors.ReproError`: it is
    exploration control flow, not a simulated failure, and must never be
    classified as an oracle violation.  Most pruned runs are never
    printed, so the message is formatted only when asked for.
    """

    def __init__(self, step, candidates):
        super().__init__(step, candidates)
        self.step = step
        self.candidates = tuple(candidates)

    def __str__(self):
        return (f"all candidates {list(self.candidates)} asleep at step "
                f"{self.step}")


_NO_STEPS = frozenset()


class ControlledPolicy(SchedulePolicy):
    """Replay a prefix of scheduling choices, then run the deterministic
    continuation — recording every choice point on the way.

    This is the model checker's instrument (:mod:`repro.check.explore`):
    a schedule is identified by the *forced* choices (step index -> CPU
    id); every unforced step takes the first in-window candidate, i.e.
    the deterministic pick, so a run is a pure function of its prefix.
    After the run, :attr:`choices` holds the full choice sequence and
    :attr:`candidates` the in-window alternatives at each step — the
    branching structure the explorer enumerates.

    ``sleep`` seeds a sleep set (CPU ids whose scheduling is provably
    covered by an already-explored sibling).  From step ``sleep_from``
    on, the default pick skips sleeping CPUs; the explorer's recorder
    wakes entries (``policy.sleep.discard``) when an executed step is
    dependent on them.  When *every* candidate is asleep the run raises
    :class:`SchedulePruned`.  Forced choices override the sleep set —
    a replayed prefix is always followed verbatim.

    If a forced CPU is not among the candidates (possible only when the
    program or fault plan differs from the run that recorded the
    prefix), the divergence is recorded in :attr:`divergences` and the
    default pick is used for that step.

    ``fork_hook(step)`` is called at each step index in ``fork_steps``
    that a search can fork from: a forced step, or one with an
    in-window alternative to the pick that is not asleep.  It runs after
    the pick is decided but before the step is recorded or executed, so
    the machine and this policy are still at the step boundary: the
    explorer captures its fork-point checkpoints there.
    """

    name = "controlled"

    #: Snapshot state (repro.sim.snapshot), as a book: the recordings.
    #: The forced map, the sleep set and the fork hook are each run's
    #: own, installed by whoever builds the policy.
    _state = ("choices", "candidates", "divergences")

    def __init__(self, forced=None, sleep=(), sleep_from=0,
                 window=DEFAULT_WINDOW):
        self.forced = dict(forced) if forced else {}
        self.sleep = set(sleep)
        self.sleep_from = sleep_from
        self.window = window
        #: CPU id chosen at each step, in order.
        self.choices = []
        #: Tuple of in-window candidate CPU ids at each step.
        self.candidates = []
        #: (step, wanted_cpu_id) pairs where a forced choice was
        #: unavailable; empty on a faithful replay.
        self.divergences = []
        self.fork_steps = _NO_STEPS
        self.fork_hook = None

    def choose(self, runnable):
        step = len(self.choices)
        # The in-window candidates in window_candidates' (resume_at,
        # cpu_id) order, without its genexpr and key function: the
        # explorer's machines mostly have one or two runnable CPUs.
        if len(runnable) == 1:
            order = runnable
            ids = (runnable[0].cpu_id,)
        elif len(runnable) == 2:
            first, second = runnable
            if (second.resume_at, second.cpu_id) < (first.resume_at,
                                                    first.cpu_id):
                first, second = second, first
            if second.resume_at <= first.resume_at + self.window:
                order = (first, second)
                ids = (first.cpu_id, second.cpu_id)
            else:
                order = (first,)
                ids = (first.cpu_id,)
        else:
            keyed = sorted([(cpu.resume_at, cpu.cpu_id, cpu)
                            for cpu in runnable])
            limit = keyed[0][0] + self.window
            order = [cpu for resume_at, _, cpu in keyed
                     if resume_at <= limit]
            ids = tuple([cpu.cpu_id for cpu in order])
        chosen = None
        want = self.forced.get(step)
        if want is not None:
            if want in ids:
                chosen = want
            else:
                self.divergences.append((step, want))
        sleep = self.sleep
        if chosen is None:
            if sleep and step >= self.sleep_from:
                for cpu_id in ids:
                    if cpu_id not in sleep:
                        chosen = cpu_id
                        break
                else:
                    # choices stays one short of candidates: the pruned
                    # step was observed but never executed.
                    self.candidates.append(ids)
                    raise SchedulePruned(step, ids)
            else:
                chosen = ids[0]
        if step in self.fork_steps:
            for cpu_id in ids:
                if (want is not None
                        or cpu_id != chosen and cpu_id not in sleep):
                    self.fork_hook(step)
                    break
        self.candidates.append(ids)
        self.choices.append(chosen)
        for cpu in order:
            if cpu.cpu_id == chosen:
                return cpu

    @property
    def n_steps(self):
        return len(self.choices)

    @property
    def deviations(self):
        """The ``(step, cpu)`` pairs off the deterministic pick."""
        return tuple(
            (step, chosen)
            for step, (chosen, cands) in enumerate(
                zip(self.choices, self.candidates))
            if cands and chosen != cands[0])


class ReplayPolicy(SchedulePolicy):
    """Replay a deviation list (ascending, one pair per step) like a
    :class:`ControlledPolicy`, recording only the step count, the
    divergences and the pairs that did not deviate: the caller's list
    stays the one copy of the schedule, and is :attr:`deviations` when
    every pair took effect."""

    name = "replay"

    def __init__(self, deviations, window=DEFAULT_WINDOW):
        self.source = deviations
        self.window = window
        self.n_steps = 0
        self.divergences = []
        self._next = 0
        self._idle = set()

    def choose(self, runnable):
        step = self.n_steps
        self.n_steps = step + 1
        candidates = window_candidates(runnable, self.window)
        index = self._next
        if index == len(self.source) or self.source[index][0] != step:
            return candidates[0]
        self._next = index + 1
        want = self.source[index][1]
        for cpu in candidates[1:]:
            if cpu.cpu_id == want:
                return cpu
        self._idle.add(index)
        if want != candidates[0].cpu_id:
            self.divergences.append((step, want))
        return candidates[0]

    @property
    def deviations(self):
        """The pairs that took effect, as a tuple."""
        taken = self.source
        if self._next < len(taken):
            taken = taken[:self._next]
        if self._idle:
            return tuple(pair for index, pair in enumerate(taken)
                         if index not in self._idle)
        return taken if type(taken) is tuple else tuple(taken)


class PriorityPolicy(RecordingPolicy):
    """PCT-style priority scheduling with ``depth`` change-points.

    Each CPU gets a static pseudo-random priority derived from
    ``(seed, cpu_id)``; the highest-priority in-window CPU runs.  At each
    of ``depth`` change-points (scheduling-step indices drawn from
    ``range(1, horizon)``), the CPU chosen at that step is demoted below
    every static priority — the PCT move that forces the "wrong" thread
    to run at a critical moment.  A failing run replays and shrinks
    through its recorded :attr:`schedule`, like any randomized run.
    """

    name = "pct"

    def __init__(self, seed=0, depth=3, horizon=50_000,
                 window=DEFAULT_WINDOW):
        super().__init__(window)
        self.seed = seed
        rng = random.Random(seed)
        span = range(1, max(2, horizon))
        self.change_points = sorted(rng.sample(span, min(depth, len(span))))
        self._next_point = 0
        self._steps = 0
        #: cpu_id -> demotion ordinal; the most recently demoted CPU has
        #: the lowest priority of all.
        self._demoted = {}
        self._demote_seq = 0

    def _static_priority(self, cpu_id):
        # Derived from (seed, cpu_id) alone: stable across runs and
        # independent of encounter order.
        return random.Random(self.seed * 1_000_003 + cpu_id).random()

    def _rank(self, cpu):
        if cpu.cpu_id in self._demoted:
            # Demoted band: below all static priorities; a later demotion
            # ranks below an earlier one.
            return (1, self._demote_seq - self._demoted[cpu.cpu_id])
        return (0, self._static_priority(cpu.cpu_id))

    def pick(self, candidates):
        self._steps += 1
        chosen = min(candidates,
                     key=lambda cpu: (self._rank(cpu),
                                      cpu.resume_at, cpu.cpu_id))
        if (self._next_point < len(self.change_points)
                and self._steps >= self.change_points[self._next_point]):
            self._next_point += 1
            self._demote_seq += 1
            self._demoted[chosen.cpu_id] = self._demote_seq
        return chosen


#: name -> constructor accepting (seed, **kwargs).
POLICIES = {
    DeterministicPolicy.name: lambda seed=0, **kw: DeterministicPolicy(),
    RandomPolicy.name: RandomPolicy,
    PriorityPolicy.name: PriorityPolicy,
    ControlledPolicy.name: lambda seed=0, **kw: ControlledPolicy(**kw),
}


def make_policy(name, seed=0, **kwargs):
    """Build a policy by registry name (``det``, ``random``, ``pct``)."""
    try:
        factory = POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown schedule policy {name!r}; "
            f"choose from {sorted(POLICIES)}") from None
    return factory(seed=seed, **kwargs)
