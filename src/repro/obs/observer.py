"""The observer contract: the architectural events a machine emits.

The paper specifies the HTM as a small set of architectural events —
the Table 2 instructions (``xbegin``, ``xvalidate``, ``xcommit``,
rollback), violation posts and handler dispatch.  :class:`HtmSystem` and
:class:`~repro.sim.engine.Machine` emit exactly those events to
subscribers, and every instrument (tracer, cycle profiler, tx-stats
collector, history and step recorders) is a plain :class:`Observer`::

    class Commits(Observer):
        def __init__(self):
            self.n = 0

        def on_commit(self, cpu_id, result, level, began_at, reads,
                      writes):
            self.n += 1

    machine.observe(commits)
    ... run ...
    machine.unobserve(commits)

An observer overrides only the ``on_<event>`` methods it needs; the
no-op defaults below document each event's arguments.
:meth:`Machine.observe` keeps one tuple per event — ``_on_<event>``,
on the machine for :data:`MACHINE_EVENTS` and on ``machine.htm`` for
:data:`HTM_EVENTS` — holding the bound methods of every observer that
overrides that event, in attach order; ``observe`` and ``unobserve``
rebuild only the tuples of the events the observer overrides.  Each
emit site is::

    for fn in self._on_<event>:
        fn(...)

so an event nobody subscribes to costs one attribute load and an
empty-tuple iteration, and detaching is exact in any order: nothing is
wrapped or shadowed, only the tuples are rebuilt.  Observers must not
change what the machine computes; the fault injector, which must, is
the one component that still wraps machine methods.  Its per-step hook
goes the same way as an observer's: it joins the machine's
``_before_step`` tuple, which every step runs before the instruction
boundary's checks.

Every event fires at the end of the method it is named after, with that
method's arguments and result, except where its docstring says
otherwise.
"""

from __future__ import annotations

#: Events emitted by :class:`repro.htm.system.HtmSystem`.
HTM_EVENTS = (
    "begin", "load", "store", "im_load", "im_store", "im_store_id",
    "release", "validate", "devalidate", "commit", "rollback_to",
    "abandon_all", "try_acquire_serial", "release_serial",
)

#: Events emitted by :class:`repro.sim.engine.Machine`.
MACHINE_EVENTS = (
    "violation", "queued", "dispatch", "outcome", "fault", "wake", "park",
    "step",
)


class Observer:
    """Base class of every machine observer; all events are no-ops.

    An observer keeps its ``machine``, subscribes on construction and
    unsubscribes on :meth:`detach` or on leaving a ``with`` block."""

    def detach(self):
        """Unsubscribe; exact and idempotent."""
        self.machine.unobserve(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.detach()
        return False

    # -- HtmSystem ------------------------------------------------------

    def on_begin(self, cpu_id, open_, now, level):
        """``xbegin`` pushed a real nesting ``level``.  Flattened begins,
        which push no level, emit nothing."""

    def on_load(self, cpu_id, addr, unit, level, action):
        """A transactional load, after the detector's decision.  ``unit``
        is ``addr``'s conflict-tracking unit, ``level`` the CPU's depth
        (0 outside a transaction), ``action`` the detector's verdict
        (the load took effect only if it is ``PROCEED``)."""

    def on_store(self, cpu_id, addr, unit, level, action):
        """A store, after the detector's decision (as :meth:`on_load`)."""

    def on_im_load(self, cpu_id, addr, value):
        """An immediate (untracked) load returned ``value``."""

    def on_im_store(self, cpu_id, addr, value):
        """An immediate (untracked) store."""

    def on_im_store_id(self, cpu_id, addr, value):
        """An idempotent immediate store."""

    def on_release(self, cpu_id, addr, released):
        """An early release; ``released`` says whether a read-set entry
        was dropped."""

    def on_validate(self, cpu_id, ok):
        """``xvalidate`` succeeded (``ok``) or stalled."""

    def on_devalidate(self, cpu_id, level):
        """A validation was retracted from ``level`` (0: nothing was
        validated)."""

    def on_commit(self, cpu_id, result, level, began_at, reads, writes):
        """``xcommit`` finished, after the detector saw the publication
        (so lazy violation posts precede this event).  ``result`` is the
        :class:`~repro.htm.system.CommitResult`; ``level``, ``began_at``
        and the ``reads``/``writes`` set sizes describe the committed
        level as it stood before the commit.  A flattened commit ends no
        level and reports all four as 0."""

    def on_rollback_to(self, cpu_id, target_level, now, work):
        """Levels ``>= target_level`` were discarded and ``target_level``
        restarted; ``work`` is the undo work performed."""

    def on_abandon_all(self, cpu_id, work):
        """Every level was discarded without restart.  Also emitted when
        the CPU was not in a transaction (``work`` 0)."""

    def on_try_acquire_serial(self, cpu_id, acquired):
        """A serial-mode acquisition attempt."""

    def on_release_serial(self, cpu_id):
        """Serial mode was released."""

    # -- Machine --------------------------------------------------------

    def on_violation(self, violation):
        """The detector (or a fault injector) posted ``violation``.
        Emitted at the post, above any fault-injector hold-back."""

    def on_queued(self, violation):
        """``violation`` reached its victim's violation queue (below any
        fault-injector hold-back)."""

    def on_dispatch(self, cpu, kind):
        """A ``kind`` ("violation" or "abort") dispatcher frame was
        pushed on ``cpu``."""

    def on_outcome(self, cpu, outcome):
        """A dispatcher returned ``outcome``.  Emitted at the start of
        its application, before it is validated."""

    def on_fault(self, kind, cpu_id, detail):
        """A fault injector fired ``kind`` on ``cpu_id``."""

    def on_wake(self, cpu_id):
        """``cpu_id`` is about to be woken.  Emitted at the start, so
        the CPU's pre-wake state is visible."""

    def on_park(self, cpu):
        """``cpu`` is about to be descheduled.  Emitted at the start, so
        its pre-park state is visible."""

    def on_step(self, cpu):
        """The engine finished one scheduling step of ``cpu``: one per
        policy ``choose`` call (a heap-served deterministic run makes no
        such calls; the event still fires once per step)."""


def clear_subscribers(target, events):
    """Give ``target`` an empty ``_on_<event>`` tuple per event."""
    for event in events:
        setattr(target, "_on_" + event, ())


_HTM = frozenset(HTM_EVENTS)

#: Per observer class, its :func:`subscriptions` (computed once).
_SUBSCRIPTIONS = {}


def subscriptions(cls):
    """``(tuple attribute, handler name, is an HTM event)`` for every
    event ``cls`` overrides."""
    subs = _SUBSCRIPTIONS.get(cls)
    if subs is None:
        subs = _SUBSCRIPTIONS[cls] = tuple(
            ("_on_" + event, "on_" + event, event in _HTM)
            for event in HTM_EVENTS + MACHINE_EVENTS
            if getattr(cls, "on_" + event, None)
            not in (None, getattr(Observer, "on_" + event)))
    return subs
