"""Deep machine snapshot/restore: resume a run mid-schedule.

The model checker re-executes every schedule prefix from cycle 0
(VeriSoft-style stateless search).  This module adds the CHESS-style
alternative: capture the whole machine at a step boundary and later
*resume* from that point, so a child schedule that shares a long prefix
with its parent skips the replay.

**The data plane.**  Every long-lived component (the machine, CPUs, ISA
registers, HTM parts, stats, memory, memory models, bus, caches)
declares its mutable fields once, as a class attribute ``_state``, and
one generated save and load (below) copy them by one rule set.  What a
field holds the first time its tree is saved decides its kind:

* a component (an object with ``_state``), or a list of components, is
  saved recursively and loaded **in place**;
* a builtin container is cleared and refilled with copies, so every
  alias into it stays valid (``BoundCounter`` → ``Stats._counters``,
  the detectors → the ``ConflictIndex`` tables);
* anything else is assigned, shared by reference.

Inside containers, :func:`copy_value` copies ``dict`` (also
``defaultdict``, ``OrderedDict``), ``list``, ``set`` and ``deque``
recursively, keeping type and order, and non-frozen dataclass records
(``LevelInfo``, ``UndoEntry``) field by field; everything else (scalars,
tuples, frozensets, ops, exceptions) is shared.  Derived caches
are not state: a load calls a component's optional
``_rederive()`` once its fields are back (``HierarchicalMemory``
rebuilds the residency registry its caches alias as ``_registry``;
``WriteBufferVersioning`` its level list).  The scheduling policy is
not in the snapshot: a caller resuming a stateful policy installs its
own copy (the explorer gives each child its own ``ControlledPolicy``).

**Books.**  Components outside the machine that record a run — the
explorer's ``ControlledPolicy`` recordings, ``StepRecorder``,
``HistoryRecorder`` (with its ``History``) and ``CycleProfiler`` —
declare their books as ``_state`` too.  ``capture(machine, books)``
saves each book by the same rules, with its own generated shape cut to
the same bound CPUs, and ``restore(machine, snapshot, setup_fn, books)``
loads them, in the same order, onto the target's books once the
machine is back.  A book's links to the machine and its host-side
wiring (the profiler's executor shadows) are not state, so each
target keeps its own.

**One generated save/load per machine shape.**  The rules are applied
by code generated from the ``_state`` declarations, the way
:mod:`dataclasses` generates ``__init__``: one flat ``save`` and one
``load`` per tree shape (root type, configuration, bound CPUs), with
every component unrolled into a local variable and every run of
assigned fields read by one ``attrgetter``.  A machine generates its
shape lazily, on its first capture (never in ``Machine.__init__``), and
keeps it for the next ones.

**Bound CPUs only.**  A CPU no program was ever bound to
(``Machine._bound_cpus``) never leaves its just-built state, so the
``_per_cpu`` lists (the machine's CPUs, the HTM's per-CPU states, the
profiler's per-CPU books) are captured and loaded for the bound CPUs
only.  :func:`restore` raises :class:`SnapshotError` unless the target
ends up with exactly the snapshot's bound CPUs.

**Hand-off on last use.**  A capture deep-copies, so one snapshot can be
restored any number of times.  A caller that knows how many restores a
snapshot will serve sets :attr:`MachineSnapshot.uses`, the one use
counter; a restore that raises consumes no use.  The restore that uses
it up takes the captured containers (machine and books alike) over
instead of copying them again, and the spent snapshot refuses any
further restore.

**The control plane** — workloads, handlers and dispatchers — is Python
generators, which cannot be copied or pickled.  ``Cpu.frames``, their
call stacks ``Cpu.calls`` and ``Cpu.rt`` are therefore not declared
state; restore rebuilds them by **ghost replay**:

1. Reset what program setup and ghost replay read — the bound CPUs'
   frames, runtime handles and run state, the code registry, the clock
   — and re-run the original program setup (same program, same seed).
   Setup only *creates* generators — nothing runs until the engine's
   first ``send`` — so this recreates the frame stacks' level 0 with
   virgin host state (closures, locals, per-program RNGs).  What setup
   writes into the stats and memory is overwritten by step 3.
2. Swap ``machine.htm`` for a :class:`GhostHtm` and re-feed the **step
   journal** — the per-step record of every engine↔generator
   interaction the original run made (recorded by the engine when
   :meth:`Machine.enable_journal` is on).  Each feed goes through the
   engine's own call-stack helper (``engine._advance``), so the calls
   and returns of sub-generators are re-derived, never journaled.  Host
   code genuinely re-executes, rebuilding its closures and runtime
   bookkeeping, but the ops it yields are discarded: every value it
   *receives* (send values, thrown exceptions, ISA registers, HTM
   status) comes from the journal, so it retraces the original path
   exactly without touching the data plane.
3. Load the data plane from the snapshot and self-check that the
   rebuilt frame stacks and each frame's call-stack depth match the
   captured ones.

A resumed run is then bit-for-bit identical to the original straight
line — cycles, stats, results — which ``tests/test_snapshot.py`` pins
and the explore layer enforces differentially.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict, defaultdict, deque, namedtuple
from operator import attrgetter

from repro.common.errors import ReproError, SimulationError, TxRollback
from repro.htm.system import HtmSystem, TxState
from repro.isa.context import DONE
from repro.isa.dispatch import (
    default_abort_dispatcher,
    default_violation_dispatcher,
)
from repro.sim.engine import _advance


class SnapshotError(ReproError):
    """A snapshot could not be taken or faithfully restored.

    Callers treat this as "fall back to stateless replay", never as a
    verdict about the program under test.
    """


# ----------------------------------------------------------------------
# The state protocol
# ----------------------------------------------------------------------


#: The types resolved as shared.  ``_shared(map(type, items))`` is the
#: C-level test that lets a container whose items are all shared be
#: copied in one call.
_SHARED = {int, bool, float, str, bytes, tuple, frozenset, type(None)}
_shared = _SHARED.issuperset


def copy_value(value):
    """A copy of ``value`` under the rules in the module docstring."""
    try:
        copier = _COPIERS[type(value)]
    except KeyError:
        copier = _resolve(type(value))
    return value if copier is None else copier(value)


def _resolve(cls):
    if (dataclasses.is_dataclass(cls)
            and not cls.__dataclass_params__.frozen):
        copier = _record_copier(cls)
    else:
        copier = None
        _SHARED.add(cls)
    _COPIERS[cls] = copier
    return copier


def _copy_dict(mapping):
    clone = mapping.copy()
    if mapping and not _shared(map(type, mapping.values())):
        for key, value in mapping.items():
            clone[key] = copy_value(value)
    return clone


def _copy_seq(items):
    clone = items.copy()
    if items and not _shared(map(type, items)):
        clone.clear()
        clone.extend(map(copy_value, items))
    return clone


#: type -> copy function, or None for a type shared by reference; the
#: containers are listed here, every other type is resolved on first
#: sight by :func:`_resolve`.  A set's elements are hashable, hence
#: shared.
_COPIERS = {dict: _copy_dict, defaultdict: _copy_dict,
            OrderedDict: _copy_dict, list: _copy_seq, deque: _copy_seq,
            set: set.copy}

# The save/load code below is generated, the way :mod:`dataclasses`
# generates ``__init__``: a restore runs once per explored schedule, and
# straight-line attribute access is several times faster than a loop of
# ``getattr``/``setattr`` calls or a call per component.

#: Container type -> generated code that refills the cleared container
#: ``x`` from the saved ``y``: with ``y``'s own items when the capture
#: is being taken over (``take``) or its items are all shared, with
#: copies otherwise.
_FILL = {
    **dict.fromkeys(
        (dict, defaultdict, OrderedDict),
        "x.update(y if take or _shared(map(type, y.values())) "
        "else _copy_dict(y))"),
    **dict.fromkeys(
        (list, deque),
        "x.extend(y if take or _shared(map(type, y)) "
        "else map(copy_value, y))"),
    set: "x.update(y)",
}


def _define(source, **names):
    """The one function ``source`` defines, compiled against this
    module's globals plus ``names``."""
    namespace = {}
    exec(source, {**globals(), **names}, namespace)
    (function,) = namespace.values()
    return function


def _record_copier(cls):
    body = "".join(
        f"    v = record.{field.name}\n"
        f"    clone.{field.name} = "
        "v if type(v) in _SHARED else copy_value(v)\n"
        for field in dataclasses.fields(cls))
    return _define(
        f"def copy_record(record):\n    clone = new(cls)\n{body}"
        "    return clone\n", new=object.__new__, cls=cls)


class _Shape:
    """The generated ``save``/``load`` pair of one component tree.

    ``save(root)`` returns a flat tuple with one entry per field of the
    whole tree; ``load(root, saved, take)`` writes one back in place,
    taking the capture's containers over instead of copying them when
    ``take`` is true (the capture must not be loaded again).  ``bound``
    is the CPU ids the per-CPU component lists were cut to (None: all
    of them)."""

    __slots__ = ("bound", "save", "load")


#: ``(type, bound)`` (or ``(type, config repr, bound)`` for a root with
#: a configuration) -> its :class:`_Shape`.
_SHAPES = {}


def _shape(root, bound=None):
    """The (lazily generated) :class:`_Shape` of ``root``'s tree with its
    per-CPU lists cut to ``bound``.  A tree's classes and list lengths
    are fixed by its root type and configuration."""
    shape = _SHAPES.get((type(root), bound))
    if shape is None:
        config = getattr(root, "config", None)
        key = ((type(root), bound) if config is None
               else (type(root), repr(config), bound))
        shape = _SHAPES.get(key)
        if shape is None:
            shape = _SHAPES[key] = _compile(root, bound)
    return shape


def _compile(root, bound):
    """Generate the :class:`_Shape` of ``root``'s tree from the ``_state``
    of its components.  Components are unrolled into local variables;
    a component's ``_per_cpu`` lists keep only the ``bound`` entries.
    Each field is handled by what it holds on this instance
    (components are wired at construction and never change kind); a
    run of assigned fields is read by one ``attrgetter`` and written by
    one unpacking assignment."""
    fetch, items, loads, names = [], [], [], {}
    components = iter(range(1, 1 << 30))

    def bind(expr, component):
        var = f"c{next(components)}"
        fetch.append(f"{var} = {expr}")
        walk(component, var)

    def assign(var, run):
        saved = f"s[{len(items)}]"
        if len(run) == 1:
            items.append(f"{var}.{run[0]}")
            loads.append(f"{var}.{run[0]} = {saved}")
        elif run:
            getter = f"g{len(items)}"
            names[getter] = attrgetter(*run)
            items.append(f"{getter}({var})")
            loads.append(", ".join(f"{var}.{name}" for name in run)
                         + f" = {saved}")
        run.clear()

    def walk(component, var):
        cls = type(component)
        run = []
        for name in cls._state:
            value = getattr(component, name)
            field = f"{var}.{name}"
            if hasattr(type(value), "_state"):
                assign(var, run)
                bind(field, value)
            elif (type(value) is list and value
                    and all(hasattr(type(part), "_state") for part in value)):
                assign(var, run)
                cut = (bound if bound is not None
                       and name in getattr(cls, "_per_cpu", ())
                       else range(len(value)))
                for index in cut:
                    bind(f"{field}[{index}]", value[index])
            elif type(value) in _FILL:
                # Refilled in place while it still holds this container
                # type (aliases stay valid), replaced otherwise.
                assign(var, run)
                saved = f"s[{len(items)}]"
                kind = f"k{len(items)}"
                names[kind] = type(value)
                names[f"copy_{kind}"] = _COPIERS[type(value)]
                items.append(f"copy_{kind}(v) if type(v := {field}) is "
                             f"{kind} else copy_value(v)")
                loads.extend([
                    f"y = {saved}",
                    f"if type(x := {field}) is {kind} is type(y):",
                    "    if x: x.clear()",
                    f"    if y: {_FILL[type(value)]}",
                    "else:",
                    f"    {field} = y if take else copy_value(y)",
                ])
            else:
                run.append(name)
        assign(var, run)
        if hasattr(cls, "_rederive"):
            loads.append(f"{var}._rederive()")

    walk(root, "c0")
    shape = _Shape()
    shape.bound = bound
    shape.save = _define(
        "def save_state(c0):\n"
        + "".join(f"    {line}\n" for line in fetch)
        + "    return (\n"
        + "".join(f"        {item},\n" for item in items)
        + "    )\n", **names)
    shape.load = _define(
        "def load_state(c0, s, take):\n"
        + "".join(f"    {line}\n" for line in fetch + loads)
        + "    return None\n", **names)
    return shape


def save(component):
    """Capture the fields ``component``'s tree declares in ``_state``."""
    return _shape(component).save(component)


# ----------------------------------------------------------------------
# The step journal
# ----------------------------------------------------------------------

# Feed tag singletons.  A step's feed is what the engine gave the top
# frame: a parked-op re-issue (no generator interaction), a sent value,
# or a thrown exception.
_FEED_PARKED = ("p",)

LevelView = namedtuple("LevelView", "txid open status")
LevelView.__doc__ = """One nesting level as the journal records it and
ghost replay shows it to host code."""

#: The ``post`` record of a step that left its CPU outside any
#: transaction.
_POST_IDLE = ((), 0, False)


class StepJournal:
    """Per-step log of engine↔generator interactions.

    One entry per engine step::

        (cpu_id, now, sync, push, feed, post)

    * ``now`` — the step's start time (the engine does not move the
      clock inside a step).
    * ``sync`` — ISA registers host code can observe, captured at the
      top of ``_step``: ``(viol_reporting, xvcurrent, xvaddr,
      xabort_code, xtcbptr_top)``.  They are re-applied before the feed
      so the resumed generator sees exactly what it saw originally.
    * ``push`` — ``None``, or ``(kind, code_id, xvcurrent, xvaddr,
      xvpc)`` when the step pushed a dispatcher frame.  The register
      values are *post*-``pop_next`` (the ghost cannot re-run the pop:
      its violation queue drifts).
    * ``feed`` — ``("p",)`` parked re-issue, ``("s", value)`` send, or
      ``("t", exc)`` throw.
    * ``post`` — ``(levels, flatten_extra, unwound)``: the CPU's HTM
      nesting view after the step (``levels`` is a tuple of
      :data:`LevelView`) plus whether a capacity abort unwound the
      dispatcher stack.
    """

    __slots__ = ("entries", "_sync", "_push", "_feed", "_unwound",
                 "_views")

    def __init__(self):
        self.entries = []
        self._sync = None
        self._push = None
        self._feed = _FEED_PARKED
        self._unwound = False
        #: cpu id -> the level-view tuple last recorded for it, reused
        #: while its nesting is unchanged.
        self._views = {}

    def begin_step(self, cpu):
        isa = cpu.isa
        self._sync = (isa.viol_reporting, isa.xvcurrent, isa.xvaddr,
                      isa.xabort_code, isa.xtcbptr_top)

    def stage_push(self, kind, code_id, xvcurrent, xvaddr, xvpc):
        self._push = (kind, code_id, xvcurrent, xvaddr, xvpc)

    def stage_feed(self, feed):
        self._feed = feed

    def stage_unwound(self):
        self._unwound = True

    def close_step(self, machine, cpu):
        """Record the step ``cpu`` just made (``machine.now`` is still
        the step's start time) and reset the staged parts."""
        cpu_id = cpu.cpu_id
        state = machine.htm.states[cpu_id]
        levels = state.levels
        if levels:
            view = self._views.get(cpu_id)
            if view is not None and len(view) == len(levels):
                for seen, info in zip(view, levels):
                    if (seen.txid != info.txid or seen.open != info.open
                            or seen.status != info.status):
                        view = None
                        break
            else:
                view = None
            if view is None:
                view = self._views[cpu_id] = tuple([
                    LevelView(info.txid, info.open, info.status)
                    for info in levels])
            post = (view, state.flatten_extra, self._unwound)
        elif state.flatten_extra or self._unwound:
            post = ((), state.flatten_extra, self._unwound)
        else:
            post = _POST_IDLE
        self.entries.append(
            (cpu_id, machine.now, self._sync, self._push, self._feed, post))
        self._push = None
        self._feed = _FEED_PARKED
        self._unwound = False


# ----------------------------------------------------------------------
# The ghost HTM
# ----------------------------------------------------------------------


class _GhostTxState:
    """``TxState``'s introspection surface — its own methods — over the
    journal's tuple of :data:`LevelView`."""

    __slots__ = ("cpu_id", "levels", "flatten_extra")

    depth = TxState.depth
    in_tx = TxState.in_tx
    current = TxState.current
    is_validated = TxState.is_validated

    def __init__(self, cpu_id):
        self.cpu_id = cpu_id
        self.levels = ()
        self.flatten_extra = 0


class GhostHtm:
    """Read-only HTM stand-in wired from journal ``post`` records.

    During ghost replay, host code may introspect transactional state
    (``t.depth()``, ``t.xstatus()``, the violation dispatcher's level
    scan) — but must never *operate* on it.  Operations only happen via
    yielded ops, which the ghost discards, so this class implements
    exactly the introspection surface and nothing else: any unexpected
    call fails loudly as an ``AttributeError`` → :class:`SnapshotError`
    at the caller.
    """

    depth = HtmSystem.depth
    xstatus = HtmSystem.xstatus

    def __init__(self, n_cpus):
        self.states = [_GhostTxState(cpu_id) for cpu_id in range(n_cpus)]


# ----------------------------------------------------------------------
# The snapshot
# ----------------------------------------------------------------------


class MachineSnapshot:
    """Everything needed to rebuild a machine mid-run.

    ``state`` is the :class:`_Shape` capture of the machine with its
    per-CPU parts cut to the CPUs bound at capture (``shape.bound``):
    all copies, so a snapshot restores onto any machine with an equal
    configuration and the same bound CPUs.  ``books`` holds the
    captures of the books passed to :func:`capture`, made by
    ``book_shapes``.  ``uses`` is how many more restores it serves:
    None is unlimited, and the restore that brings a count to zero
    takes the captured containers over instead of copying them, after
    which the snapshot is spent (``state`` and ``books`` are None).
    ``calls`` holds, per bound CPU, the depth of each frame's call
    stack: ghost replay must rebuild exactly these.
    """

    __slots__ = ("config", "shape", "state", "book_shapes", "books",
                 "calls", "journal", "journal_len", "uses", "__weakref__")

    def steps(self):
        """Engine steps completed at capture time."""
        return self.journal_len


def capture(machine, books=()):
    """Capture ``machine`` and its ``books`` at a step boundary.

    Must be called between engine steps (e.g. from a scheduling
    policy's ``choose``, before it returns the step's pick) of a run
    started after :meth:`Machine.enable_journal`.  ``books`` are
    components outside the machine that declare ``_state`` (see the
    module docstring); each is saved cut to the machine's bound CPUs.
    """
    journal = machine._journal
    if journal is None:
        raise SnapshotError(
            "snapshot requires enable_journal() before the run")
    bound = machine._bound_cpus
    shape = machine._shape
    if shape is None or shape.bound != bound:
        # Generated on a machine's first capture (and again only if a
        # program is bound to one more CPU mid-run).
        shape = machine._shape = _shape(machine, bound)
    cpus = machine.cpus
    snap = MachineSnapshot()
    snap.config = machine.config
    snap.shape = shape
    snap.state = shape.save(machine)
    snap.book_shapes = tuple([_shape(book, bound) for book in books])
    snap.books = tuple([book_shape.save(book) for book_shape, book
                        in zip(snap.book_shapes, books)])
    snap.calls = [tuple([len(stack) for stack in cpus[cpu_id].calls])
                  for cpu_id in bound]
    # Zero-copy view: the journal is append-only and its entries are
    # immutable tuples, so sharing the live list plus a length bound is
    # exact — and keeps capture O(1) in the journal instead of O(steps)
    # (the explorer captures at every branch step).
    snap.journal = journal.entries
    snap.journal_len = len(journal.entries)
    snap.uses = None
    return snap


# ----------------------------------------------------------------------
# Restore
# ----------------------------------------------------------------------


def restore(machine, snapshot, setup_fn, books=()):
    """Rebuild ``snapshot`` onto ``machine`` so ``run()`` resumes it.

    ``setup_fn(machine)`` must re-run the *original* program setup —
    same program, same seed — and return the program object.  The
    machine's scheduling policy is left as it is.  ``books`` are the
    target's counterparts of the books passed to :func:`capture`, in
    the same order; they are loaded after the machine.

    Raises :class:`SnapshotError` when the snapshot is spent, when the
    machine's configuration differs from the snapshot's, when the books
    are not the captured kinds, when the two disagree on the bound CPUs,
    or when the ghost replay drifts from the journal.  A restore that
    raises consumes no use and leaves the books untouched; after the
    last two errors the machine is in an undefined state and must not
    run until another restore succeeds (the explore layer falls back
    to a stateless run on a fresh machine).
    """
    if snapshot.state is None:
        raise SnapshotError(
            "snapshot is spent: its last use already took its state")
    if machine.config is not snapshot.config and (
            machine.config != snapshot.config):
        diff = {name: (value, getattr(machine.config, name))
                for name, value in vars(snapshot.config).items()
                if value != getattr(machine.config, name)}
        raise SnapshotError(
            f"snapshot config differs from the machine's, as "
            f"field: (snapshot, machine): {diff}")
    bound = snapshot.shape.bound
    book_shapes = tuple([_shape(book, bound) for book in books])
    if book_shapes != snapshot.book_shapes:
        raise SnapshotError(
            f"books {[type(book).__name__ for book in books]} are not "
            f"the {len(snapshot.book_shapes)} books the snapshot captured")
    if machine._bound_cpus != bound and not set(
            machine._bound_cpus) <= set(bound):
        raise SnapshotError(
            f"machine has CPUs {list(machine._bound_cpus)} bound, the "
            f"snapshot only {list(bound)}")
    _reset_control_plane(machine)
    program = setup_fn(machine)
    _ghost_replay(machine, snapshot)
    if machine._bound_cpus != bound:
        raise SnapshotError(
            f"setup bound CPUs {list(machine._bound_cpus)}, the snapshot "
            f"recorded {list(bound)}")
    take = False
    if snapshot.uses is not None:
        snapshot.uses -= 1
        take = snapshot.uses <= 0
    snapshot.shape.load(machine, snapshot.state, take)
    for book_shape, book, saved in zip(book_shapes, books, snapshot.books):
        book_shape.load(book, saved, take)
    if take:
        snapshot.state = snapshot.books = None
    machine._journal.entries = snapshot.journal[:snapshot.journal_len]
    # Resumed runs report engine.steps as prefix + own steps, exactly
    # like the straight line would.
    machine._steps_base = snapshot.journal_len
    return program


def _reset_control_plane(machine):
    """Reset what program setup and ghost replay read: the bound CPUs'
    frames, runtime handles and run state, the code registry and the
    engine's clock and bookkeeping.  The rest of the data plane is left
    for the final load to overwrite."""
    machine.codereg.reset()
    cpus = machine.cpus
    for cpu_id in machine._bound_cpus:
        cpu = cpus[cpu_id]
        _close_all(cpu)
        cpu.rt = None
        cpu.state = DONE
        cpu.resume_at = 0
        cpu.dispatch_depth = 0
    machine.now = 0
    machine._live_programs = 0
    machine._ready = []
    machine.fault_hooks = None
    machine._steps_base = 0
    machine._journal = StepJournal()


def _close_all(cpu):
    """Close every generator of ``cpu``, innermost first, like
    ``Machine._kill``, and drop its frames; cleanup must not fail."""
    for stack in reversed(cpu.calls):
        for generator in reversed(stack):
            try:
                generator.close()
            except Exception:  # noqa: BLE001
                pass
    cpu.frames = []
    cpu.calls = []


def _ghost_replay(machine, snapshot):
    """Re-feed the journal through freshly-built generator stacks.

    ``machine.htm`` is swapped for a :class:`GhostHtm` for the duration,
    so host introspection sees the journaled nesting state and no real
    transactional machinery runs.  The yielded ops are discarded — their
    effects are already inside the snapshot's data plane.
    """
    ghost = GhostHtm(machine.config.n_cpus)
    ghost_states = ghost.states
    real_htm = machine.htm
    machine.htm = ghost
    cpus = machine.cpus
    code = machine.codereg.get
    index = -1
    try:
        for cpu_id, now, sync, push, feed, post in (
                snapshot.journal[:snapshot.journal_len]):
            index += 1
            cpu = cpus[cpu_id]
            isa = cpu.isa
            frames = cpu.frames
            machine.now = now
            (isa.viol_reporting, isa.xvcurrent, isa.xvaddr,
             isa.xabort_code, isa.xtcbptr_top) = sync
            if push is not None:
                kind, code_id, xvcurrent, xvaddr, xvpc = push
                isa.xvpc = xvpc
                isa.viol_reporting = False
                isa.xvcurrent = xvcurrent
                isa.xvaddr = xvaddr
                if code_id:
                    try:
                        factory = code(code_id)
                    except SimulationError as exc:
                        raise SnapshotError(
                            f"ghost replay: handler registration "
                            f"drifted: {exc}") from None
                elif kind == "violation":
                    factory = default_violation_dispatcher
                else:
                    factory = default_abort_dispatcher
                dispatcher = factory(cpu)
                frames.append(dispatcher)
                cpu.calls.append([dispatcher])
                cpu.dispatch_depth = len(frames) - 1
            if feed[0] != "p":
                if not frames:
                    raise SnapshotError(
                        f"ghost replay: cpu {cpu_id} has no frame to "
                        f"feed at step {index}")
                try:
                    if feed[0] == "s":
                        _advance(cpu.calls[-1], None, feed[1])
                    else:
                        _advance(cpu.calls[-1], feed[1], None)
                except StopIteration:
                    frames.pop()
                    cpu.calls.pop()
                    cpu.dispatch_depth = len(frames) - 1 if frames else 0
                except TxRollback:
                    # Mirrors _rollback_escaped: drop the frame the
                    # rollback escaped (the generator is already
                    # exhausted by the propagation).
                    frames.pop()
                    cpu.calls.pop()
                    cpu.dispatch_depth = len(frames) - 1 if frames else 0
                except Exception:  # noqa: BLE001 - mirrors _kill
                    _close_all(cpu)
                    frames = cpu.frames
                    cpu.dispatch_depth = 0
            state = ghost_states[cpu_id]
            state.levels, state.flatten_extra, unwound = post
            if unwound:
                # Mirrors _handle_capacity_abort: dispatcher frames are
                # dropped without close, the program frame survives.
                del frames[1:]
                del cpu.calls[1:]
                cpu.dispatch_depth = 0
    except AttributeError as exc:
        # Host code touched machinery the ghost does not model.
        raise SnapshotError(f"ghost replay: {exc}") from exc
    finally:
        machine.htm = real_htm
    for cpu_id, depths in zip(snapshot.shape.bound, snapshot.calls):
        rebuilt = tuple([len(stack) for stack in cpus[cpu_id].calls])
        if rebuilt != depths:
            raise SnapshotError(
                f"ghost replay drift: cpu {cpu_id} rebuilt call stacks "
                f"of depths {list(rebuilt)}, snapshot recorded "
                f"{list(depths)}")
