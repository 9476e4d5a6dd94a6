"""Deep machine snapshot/restore: resume a run mid-schedule.

The model checker re-executes every schedule prefix from cycle 0
(VeriSoft-style stateless search).  This module adds the CHESS-style
alternative: capture the whole machine at a step boundary and later
*resume* from that point, so a child schedule that shares a long prefix
with its parent skips the replay.

**The data plane.**  Every long-lived component (the machine, CPUs, ISA
registers, HTM parts, stats, memory, memory models, bus, caches)
declares its mutable fields once, as a class attribute ``_state``, and
:func:`save`/:func:`load` copy them by one rule set.  What a field holds
the first time its class is saved decides its kind:

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
tuples, frozensets, frozen ops, exceptions) is shared.  Derived caches
are not state: :func:`load` calls a component's optional
``_rederive()`` once its fields are back (``HierarchicalMemory``
rebuilds the residency registry its caches alias as ``_registry``;
``WriteBufferVersioning`` its level list).  The scheduling policy is
not in the snapshot: a caller resuming a stateful policy installs its
own copy (the explorer gives each child its own ``ControlledPolicy``).

**The control plane** — workloads, handlers and dispatchers — is Python
generators, which cannot be copied or pickled.  ``Cpu.frames`` and
``Cpu.rt`` are therefore not declared state; restore rebuilds them by
**ghost replay**:

1. Reset the target machine to pristine and re-run the original program
   setup (same program, same seed).  Setup only *creates* generators —
   nothing runs until the engine's first ``send`` — so this recreates
   the frame stacks' level 0 with virgin host state (closures, locals,
   per-program RNGs).
2. Swap ``machine.htm`` for a :class:`GhostHtm` and re-feed the **step
   journal** — the per-step record of every engine↔generator
   interaction the original run made (recorded by the engine when
   :meth:`Machine.enable_journal` is on).  Host code genuinely
   re-executes, rebuilding its closures and runtime bookkeeping, but the
   ops it yields are discarded: every value it *receives* (send values,
   thrown exceptions, ISA registers, HTM status) comes from the journal,
   so it retraces the original path exactly without touching the data
   plane.
3. :func:`load` the data plane from the snapshot and self-check that
   the rebuilt frame stacks match the captured frame counts.

A resumed run is then bit-for-bit identical to the original straight
line — cycles, stats, results — which ``tests/test_snapshot.py`` pins
and the explore layer enforces differentially.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict, defaultdict, deque, namedtuple

from repro.common.errors import ReproError, SimulationError, TxRollback
from repro.htm.system import HtmSystem, TxState
from repro.isa.dispatch import (
    default_abort_dispatcher,
    default_violation_dispatcher,
)


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

# The per-class code below is generated, the way :mod:`dataclasses`
# generates ``__init__``: a restore runs once per explored schedule,
# and plain attribute access is several times faster than a loop of
# ``getattr``/``setattr`` calls.

#: Container type -> generated code that refills the cleared container
#: ``x`` with a copy of the saved ``y``'s items.
_FILL = {
    **dict.fromkeys(
        (dict, defaultdict, OrderedDict),
        "x.update(y if _shared(map(type, y.values())) else _copy_dict(y))"),
    **dict.fromkeys(
        (list, deque),
        "x.extend(y if _shared(map(type, y)) else map(copy_value, y))"),
    set: "x.update(y)",
}

#: Generated-code expression for a copy of the value ``{}``.
_COPY = "v if type(v := {}) in _SHARED else copy_value(v)"

#: Generated-code expression for the compiled pair of the component
#: ``{0}``, bound to the name ``{1}``.
_CODEC = "(_CODECS.get(type({0})) or _compile({1}))"

#: component class -> its compiled ``(save, load)`` pair.
_CODECS = {}


def _define(source, **names):
    """The one function ``source`` defines, compiled against this
    module's globals plus ``names``."""
    namespace = {}
    exec(source, {**globals(), **names}, namespace)
    (function,) = namespace.values()
    return function


def _record_copier(cls):
    body = "".join(
        f"    clone.{field.name} = {_COPY.format('record.' + field.name)}\n"
        for field in dataclasses.fields(cls))
    return _define(
        f"def copy_record(record):\n    clone = new(cls)\n{body}"
        "    return clone\n", new=object.__new__, cls=cls)


def _compile(component):
    """Compile ``save``/``load`` for ``type(component)`` from its
    ``_state``.  A capture is a tuple with one entry per field.  Each
    field is handled by what it holds on the first instance seen
    (components are wired at construction and never change kind)."""
    cls = type(component)
    saves, loads, kinds = [], [], {}
    for index, name in enumerate(cls._state):
        field = f"c.{name}"
        saved = f"s[{index}]"
        value = getattr(component, name)
        if hasattr(type(value), "_state"):
            codec = _CODEC.format(f"v := {field}", "v")
            saves.append(f"{codec}[0](v)")
            loads.append(f"{codec}[1](v, {saved})")
        elif (type(value) is list and value
              and all(hasattr(type(part), "_state") for part in value)):
            codec = _CODEC.format("p", "p")
            saves.append(f"[{codec}[0](p) for p in {field}]")
            loads.append(f"for p, ps in zip({field}, {saved}):")
            loads.append(f"    {codec}[1](p, ps)")
        elif type(value) in _FILL:
            # Refilled in place while it still holds this container
            # type, replaced by a copy otherwise.  Most are empty, and
            # an empty one is copied and refilled without a call.
            kinds[f"kind{index}"] = type(value)
            saves.append(f"v.copy() if type(v := {field}) is kind{index} "
                         "and not v else copy_value(v)")
            loads += [
                f"y = {saved}",
                f"if type(x := {field}) is kind{index} is type(y):",
                "    x.clear()",
                f"    if y: {_FILL[type(value)]}",
                "else:",
                f"    {field} = copy_value(y)",
            ]
        else:
            saves.append(field)
            loads.append(f"{field} = {saved}")
    if hasattr(cls, "_rederive"):
        loads.append("c._rederive()")
    codec = _CODECS[cls] = (
        _define("def save_state(c):\n    return ("
                + "".join(f"{item}, " for item in saves) + ")\n", **kinds),
        _define("def load_state(c, s):\n"
                + "".join(f"    {line}\n" for line in loads or ["pass"]),
                **kinds))
    return codec


def save(component):
    """Capture the fields ``component`` declares in ``_state``."""
    codec = _CODECS.get(type(component)) or _compile(component)
    return codec[0](component)


def load(component, saved):
    """Write a :func:`save` capture back onto ``component`` in place."""
    codec = _CODECS.get(type(component)) or _compile(component)
    codec[1](component, saved)


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


class StepJournal:
    """Per-step log of engine↔generator interactions.

    One entry per engine step::

        (cpu_id, now, sync, push, feed, post)

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

    __slots__ = (
        "entries", "_cpu", "_now", "_sync", "_push", "_feed", "_unwound")

    def __init__(self):
        self.entries = []
        self._cpu = 0
        self._now = 0
        self._sync = None
        self._push = None
        self._feed = _FEED_PARKED
        self._unwound = False

    def begin_step(self, cpu, now):
        isa = cpu.isa
        self._cpu = cpu.cpu_id
        self._now = now
        self._sync = (isa.viol_reporting, isa.xvcurrent, isa.xvaddr,
                      isa.xabort_code, isa.xtcbptr_top)
        self._push = None
        self._feed = _FEED_PARKED
        self._unwound = False

    def stage_push(self, kind, code_id, xvcurrent, xvaddr, xvpc):
        self._push = (kind, code_id, xvcurrent, xvaddr, xvpc)

    def stage_feed(self, feed):
        self._feed = feed

    def stage_unwound(self):
        self._unwound = True

    def close_step(self, machine, cpu):
        state = machine.htm.states[cpu.cpu_id]
        post = (
            tuple([LevelView(info.txid, info.open, info.status)
                   for info in state.levels]),
            state.flatten_extra,
            self._unwound,
        )
        self.entries.append(
            (self._cpu, self._now, self._sync, self._push, self._feed,
             post))


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

    ``state`` is the machine's :func:`save` capture (all copies), so a
    snapshot can be restored any number of times, onto any machine
    with an equal configuration.
    """

    __slots__ = ("config", "state", "frames", "journal", "journal_len")

    def steps(self):
        """Engine steps completed at capture time."""
        return self.journal_len


def capture(machine):
    """Capture ``machine`` at a step boundary.

    Must be called between engine steps (e.g. from a scheduling
    policy's ``choose``, before it returns the step's pick) of a run
    started after :meth:`Machine.enable_journal`.
    """
    journal = machine._journal
    if journal is None:
        raise SnapshotError(
            "snapshot requires enable_journal() before the run")
    snap = MachineSnapshot()
    snap.config = machine.config
    snap.state = save(machine)
    snap.frames = tuple(len(cpu.frames) for cpu in machine.cpus)
    # Zero-copy view: the journal is append-only and its entries are
    # immutable tuples, so sharing the live list plus a length bound is
    # exact — and keeps capture O(1) in the journal instead of O(steps)
    # (the explorer captures at every branch step).
    snap.journal = journal.entries
    snap.journal_len = len(journal.entries)
    return snap


# ----------------------------------------------------------------------
# Restore
# ----------------------------------------------------------------------


def restore(machine, snapshot, setup_fn):
    """Rebuild ``snapshot`` onto ``machine`` so ``run()`` resumes it.

    ``setup_fn(machine)`` must re-run the *original* program setup —
    same program, same seed — and return the program object.  The
    machine's scheduling policy is left as it is.

    Raises :class:`SnapshotError` when the machine's configuration
    differs from the snapshot's, or when the ghost replay drifts from
    the journal; after the latter the machine is in an undefined state
    and must be reset before reuse (the explore layer simply falls back
    to a stateless re-execution on a pooled machine).
    """
    if machine.config != snapshot.config:
        diff = {name: (value, getattr(machine.config, name))
                for name, value in vars(snapshot.config).items()
                if value != getattr(machine.config, name)}
        raise SnapshotError(
            f"snapshot config differs from the machine's, as "
            f"field: (snapshot, machine): {diff}")
    reset_machine(machine)
    program = setup_fn(machine)
    _ghost_replay(machine, snapshot)
    load(machine, snapshot.state)
    journal = StepJournal()
    journal.entries = snapshot.journal[:snapshot.journal_len]
    machine._journal = journal
    # Resumed runs report engine.steps as prefix + own steps, exactly
    # like the straight line would.
    machine._steps_base = snapshot.journal_len
    return program


#: ``(cpu, stats, memory)`` captures of a just-built machine; see
#: :func:`_pristine`.
_PRISTINE = None


def _pristine():
    """Pristine CPU, stats and memory state, captured on first use from
    a throwaway one-CPU machine (never while a real one is built)."""
    global _PRISTINE
    if _PRISTINE is None:
        from repro.common.params import SystemConfig
        from repro.sim.engine import Machine

        bare = Machine(SystemConfig(n_cpus=1, timing=False))
        _PRISTINE = (save(bare.cpus[0]), save(bare.stats),
                     save(bare.memory))
    return _PRISTINE


def reset_machine(machine):
    """Return a (possibly used) machine to its just-constructed state.

    The CPUs, stats and memory load a pristine capture (program setup
    *appends* to the stats and memory, so they must start empty).  The
    rest of the data plane (caches, HTM) is left for :func:`restore`'s
    final :func:`load` to overwrite wholesale.
    """
    cpu_state, stats_state, memory_state = _pristine()
    machine.codereg.reset()
    for cpu in machine.cpus:
        for frame in reversed(cpu.frames):
            try:
                frame.close()
            except Exception:  # noqa: BLE001 - cleanup must not fail
                pass
        cpu.frames = []
        cpu.rt = None
        load(cpu, cpu_state)
    load(machine.stats, stats_state)
    load(machine.memory, memory_state)
    machine.now = 0
    machine._live_programs = 0
    machine._ready = []
    machine.fault_hooks = None
    machine._capacity_retries = [0] * machine.config.n_cpus
    machine._steps_base = 0
    machine._journal = StepJournal()


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
    try:
        for index in range(snapshot.journal_len):
            cpu_id, now, sync, push, feed, post = snapshot.journal[index]
            cpu = machine.cpus[cpu_id]
            isa = cpu.isa
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
                        factory = machine.codereg.get(code_id)
                    except SimulationError as exc:
                        raise SnapshotError(
                            f"ghost replay: handler registration "
                            f"drifted: {exc}") from None
                elif kind == "violation":
                    factory = default_violation_dispatcher
                else:
                    factory = default_abort_dispatcher
                cpu.frames.append(factory(cpu))
                cpu.dispatch_depth = len(cpu.frames) - 1
            tag = feed[0]
            if tag != "p":
                if not cpu.frames:
                    raise SnapshotError(
                        f"ghost replay: cpu {cpu_id} has no frame to "
                        f"feed at step {index}")
                frame = cpu.frames[-1]
                try:
                    if tag == "s":
                        frame.send(feed[1])
                    else:
                        frame.throw(feed[1])
                except StopIteration:
                    cpu.frames.pop()
                except TxRollback:
                    # Mirrors _rollback_escaped: drop the frame the
                    # rollback escaped (the generator is already
                    # exhausted by the propagation).
                    cpu.frames.pop()
                except Exception:  # noqa: BLE001 - mirrors _kill
                    for open_frame in reversed(cpu.frames):
                        try:
                            open_frame.close()
                        except Exception:  # noqa: BLE001
                            pass
                    cpu.frames = []
            state = ghost_states[cpu_id]
            state.levels, state.flatten_extra, unwound = post
            if unwound:
                # Mirrors _handle_capacity_abort: dispatcher frames are
                # dropped without close, the program frame survives.
                del cpu.frames[1:]
            cpu.dispatch_depth = max(0, len(cpu.frames) - 1)
    except AttributeError as exc:
        # Host code touched machinery the ghost does not model.
        raise SnapshotError(f"ghost replay: {exc}") from exc
    finally:
        machine.htm = real_htm
    for cpu, n_frames in zip(machine.cpus, snapshot.frames):
        if len(cpu.frames) != n_frames:
            raise SnapshotError(
                f"ghost replay drift: cpu {cpu.cpu_id} rebuilt "
                f"{len(cpu.frames)} frames, snapshot recorded "
                f"{n_frames}")
