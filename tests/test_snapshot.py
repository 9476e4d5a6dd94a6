"""The snapshot/restore layer (repro.sim.snapshot).

The contract under test is bit-for-bit resumption: capture a machine
mid-run, restore it onto another (fresh or reused) machine, run both to
completion, and every observable — cycles, the stats tree, the memory
image, per-CPU results — must be identical.  A pinned golden-cycle
value guards against the capture itself perturbing the run.
"""

import copy

import pytest

from repro.check.explore import StepRecorder
from repro.check.fuzz import CONFIGS, build_config
from repro.check.history import HistoryRecorder
from repro.check.programs import make_program
from repro.common.params import functional_config
from repro.mem.layout import SharedArena
from repro.obs.observer import Observer
from repro.obs.profiler import CycleProfiler
from repro.runtime.core import Runtime
from repro.sim.engine import Machine
from repro.sim.schedule import (
    ControlledPolicy,
    DeterministicPolicy,
    RandomPolicy,
    SchedulePolicy,
)
from repro.sim import snapshot as snapshot_mod
from repro.sim.snapshot import (
    SnapshotError,
    capture,
    copy_value,
    save,
)
from repro.workloads import DetectionStressKernel

CONFIG = "lazy-wb-assoc"


class _CapturingPolicy(SchedulePolicy):
    """Delegates every pick to ``inner`` and captures the machine just
    before step ``at`` — the seam the explorer captures its fork-point
    checkpoints through (inside ``choose``, ahead of the pick).  It
    never serves from the ready heap, so every step reaches
    ``choose``; the deterministic pick is the same either way.

    The snapshot leaves the policy out, so each capture is a
    ``(snapshot, policy copy)`` pair and :func:`_restore` installs a
    copy of the policy next to the machine state."""

    def __init__(self, inner, machine, at, captured):
        self.inner = inner
        self.machine = machine
        self.at = at
        self.captured = captured
        self.steps = 0

    def choose(self, runnable):
        if self.steps == self.at:
            self.captured.append(
                (self.machine.snapshot(), copy.deepcopy(self.inner)))
        self.steps += 1
        return self.inner.choose(runnable)


def _capture_at(machine, snapshot_at, captured):
    machine.policy = _CapturingPolicy(
        machine.policy, machine, snapshot_at, captured)


def _restore(machine, checkpoint, setup_fn):
    """Install a copy of the captured policy and restore the snapshot."""
    snapshot, policy = checkpoint
    machine.policy = copy.deepcopy(policy)
    return machine.restore(snapshot, setup_fn)


def _policy(spec):
    kind, seed = spec
    if kind == "det":
        return DeterministicPolicy()
    if kind == "random":
        return RandomPolicy(seed=seed)
    return ControlledPolicy()


def _run(program_name, config, policy, snapshot_at=None,
         machine=None):
    """One full run; returns (machine, observables, checkpoint or None).

    ``snapshot_at`` captures a ``(snapshot, policy)`` checkpoint at that
    step count through the policy's ``choose``, the seam the explore
    layer captures checkpoints at.  ``machine`` restores the given
    (machine, checkpoint) pair first and resumes instead of running
    from cycle 0.
    """
    captured = []
    if machine is not None:
        machine, checkpoint = machine
        program = _restore(machine, checkpoint, _setup_fn(program_name))
    else:
        machine = Machine(config, policy=policy)
        machine.enable_journal()
        runtime = Runtime(machine)
        arena = SharedArena(machine)
        program = make_program(program_name, seed=1)
        program.setup(machine, runtime, arena)
        if snapshot_at is not None:
            _capture_at(machine, snapshot_at, captured)
    machine.run(max_cycles=program.max_cycles)
    observables = (
        machine.now,
        machine.stats.as_dict(),
        machine.memory.snapshot(),
        machine.results(),
    )
    return machine, observables, (captured[0] if captured else None)


def _setup_fn(program_name):
    def setup(machine):
        runtime = Runtime(machine)
        arena = SharedArena(machine)
        program = make_program(program_name, seed=1)
        program.setup(machine, runtime, arena)
        return program
    return setup


def _golden_steps(program_name, config, policy_spec):
    machine, golden, _ = _run(program_name, config, _policy(policy_spec))
    return golden, golden[1]["engine.steps"]


LITMUS = ("litmus-sb", "litmus-mp", "litmus-inc")


@pytest.mark.parametrize("program_name", LITMUS)
def test_restore_resume_is_bit_for_bit(program_name):
    config = build_config(CONFIG, make_program(program_name, seed=1))
    golden, n_steps = _golden_steps(program_name, config, ("det", 0))
    assert n_steps > 4
    snapshot_at = n_steps // 2

    _, straight, checkpoint = _run(
        program_name, config, DeterministicPolicy(),
        snapshot_at=snapshot_at)
    # The capture itself must not perturb the run.
    assert straight == golden
    assert checkpoint is not None
    assert checkpoint[0].steps() == snapshot_at

    # Restore onto a brand-new machine.
    fresh = Machine(config, policy=DeterministicPolicy())
    _, resumed, _ = _run(program_name, config, None,
                         machine=(fresh, checkpoint))
    assert resumed == golden


def test_restore_onto_reused_machine():
    """A pooled machine — dirty from a completed run — restores clean."""
    config = build_config(CONFIG, make_program("litmus-sb", seed=1))
    golden, n_steps = _golden_steps("litmus-sb", config, ("det", 0))
    _, _, checkpoint = _run("litmus-sb", config, DeterministicPolicy(),
                            snapshot_at=n_steps // 2)
    dirty, first, _ = _run("litmus-mp", config, DeterministicPolicy())
    assert first != golden
    dirty.policy = DeterministicPolicy()
    _, resumed, _ = _run("litmus-sb", config, None,
                         machine=(dirty, checkpoint))
    assert resumed == golden


def test_restore_is_repeatable():
    """One snapshot restores any number of times without decay."""
    config = build_config(CONFIG, make_program("litmus-inc", seed=1))
    golden, n_steps = _golden_steps("litmus-inc", config, ("det", 0))
    _, _, checkpoint = _run("litmus-inc", config, DeterministicPolicy(),
                            snapshot_at=max(2, n_steps // 3))
    machine = Machine(config, policy=DeterministicPolicy())
    for _ in range(3):
        machine.policy = DeterministicPolicy()
        _, resumed, _ = _run("litmus-inc", config, None,
                             machine=(machine, checkpoint))
        assert resumed == golden


def test_pinned_golden_cycles():
    """Straight-line and resumed litmus-sb agree on pinned cycles.

    The literal pins the deterministic schedule: if a snapshot capture
    or a restore ever shifts simulated time, this fails with the exact
    drift instead of two self-consistent wrong numbers.
    """
    config = build_config(CONFIG, make_program("litmus-sb", seed=1))
    golden, n_steps = _golden_steps("litmus-sb", config, ("det", 0))
    _, _, checkpoint = _run("litmus-sb", config, DeterministicPolicy(),
                            snapshot_at=n_steps // 2)
    fresh = Machine(config, policy=DeterministicPolicy())
    _, resumed, _ = _run("litmus-sb", config, None,
                         machine=(fresh, checkpoint))
    assert golden[0] == resumed[0] == PINNED_LITMUS_SB_CYCLES


def _cache_view(machine):
    """Per cache, set index -> the set's lines in LRU order."""
    memmodel = machine.memmodel
    return [{index: list(lines) for index, lines in cache._sets.items()}
            for cache in memmodel.l1 + memmodel.l2]


# A small eager detstress machine: eight nesting levels, so a program's
# call stack runs ten generators deep, and conflicts on the shared
# accumulator push violation dispatchers on top of it.
DEEP_CPUS = 2
DEEP_CONFIG = functional_config(
    n_cpus=DEEP_CPUS, **DetectionStressKernel.config_overrides)


def _deep_setup(machine):
    workload = DetectionStressKernel(n_threads=DEEP_CPUS, seed=1,
                                     scale=0.25)
    workload.setup(machine, Runtime(machine), SharedArena(machine))
    return workload


def _deep_observables(machine, workload):
    workload.verify(machine)
    return (machine.now, machine.stats.as_dict(), machine.memory.snapshot(),
            machine.results())


def _in_violation_dispatch(machine):
    """True when some CPU runs a violation dispatcher on top of a
    program call stack at least three generators deep."""
    return any(
        len(cpu.frames) >= 2
        and cpu.frames[-1].gi_code.co_name == "_violation_dispatcher"
        and len(cpu.calls[0]) >= 3
        for cpu in machine.cpus)


class _ProbePolicy(SchedulePolicy):
    """Deterministic picks; records each step at which ``_in_violation_
    dispatch`` holds."""

    def __init__(self, machine):
        self.machine = machine
        self.inner = DeterministicPolicy()
        self.hits = []
        self.steps = 0

    def choose(self, runnable):
        if _in_violation_dispatch(self.machine):
            self.hits.append(self.steps)
        self.steps += 1
        return self.inner.choose(runnable)


def _deep_checkpoint():
    """The straight-line observables of the deep machine, and a
    checkpoint captured mid-burst with a violation dispatcher on top."""
    probe = Machine(DEEP_CONFIG)
    workload = _deep_setup(probe)
    probe.policy = _ProbePolicy(probe)
    probe.run()
    golden = _deep_observables(probe, workload)
    assert probe.policy.hits, "no violation dispatch at depth"
    at = probe.policy.hits[0]

    machine = Machine(DEEP_CONFIG, policy=DeterministicPolicy())
    machine.enable_journal()
    workload = _deep_setup(machine)
    captured = []
    _capture_at(machine, at, captured)
    machine.run()
    assert _deep_observables(machine, workload) == golden
    (checkpoint,) = captured
    return golden, checkpoint


def test_restore_resumes_inside_deep_call_stacks():
    """A capture taken while a violation dispatcher runs on top of a
    ten-deep transaction call stack resumes bit-for-bit: ghost replay
    rebuilds every callee through the engine's own call-stack code."""
    golden, checkpoint = _deep_checkpoint()
    snapshot = checkpoint[0]
    assert any(len(depths) == 2 and depths[0] >= 3
               for depths in snapshot.calls)
    fresh = Machine(DEEP_CONFIG)
    workload = _restore(fresh, checkpoint, _deep_setup)
    assert [tuple(len(stack) for stack in fresh.cpus[cpu_id].calls)
            for cpu_id in snapshot.shape.bound] == snapshot.calls
    fresh.run()
    assert _deep_observables(fresh, workload) == golden


def test_ghost_replay_drift_in_call_stacks_is_an_error(monkeypatch):
    """Restore compares every rebuilt call-stack depth with the
    captured ones, and a ghost replay that feeds each frame's own
    generator instead of the top of its call stack must raise, so the
    explorer falls back to a stateless run instead of resuming."""
    _, checkpoint = _deep_checkpoint()
    snapshot = checkpoint[0]
    index, depths = next((index, depths)
                         for index, depths in enumerate(snapshot.calls)
                         if len(depths) == 2)
    cpu_id = snapshot.shape.bound[index]
    snapshot.calls[index] = (depths[0] + 1, *depths[1:])
    with pytest.raises(
            SnapshotError,
            match=rf"drift: cpu {cpu_id} rebuilt call stacks of depths "
                  rf"\[{depths[0]}, 1\], snapshot recorded "
                  rf"\[{depths[0] + 1}, 1\]"):
        _restore(Machine(DEEP_CONFIG), checkpoint, _deep_setup)
    snapshot.calls[index] = depths

    def bypass(stack, exc, value):
        if exc is None:
            return stack[0].send(value)
        return stack[0].throw(exc)

    monkeypatch.setattr(snapshot_mod, "_advance", bypass)
    with pytest.raises(SnapshotError, match="ghost replay"):
        _restore(Machine(DEEP_CONFIG), checkpoint, _deep_setup)
    monkeypatch.undo()
    resumed = Machine(DEEP_CONFIG)
    _restore(resumed, checkpoint, _deep_setup)
    resumed.run()


def test_restore_drops_cache_sets_the_capture_never_had():
    """Caches allocate sets on first fill.  A restore onto a machine
    that filled other sets must leave exactly the captured sets, in
    their captured LRU order, and resume the straight line."""
    config = build_config("lazy-timing-simple",
                          make_program("litmus-sb", seed=1))
    golden, n_steps = _golden_steps("litmus-sb", config, ("det", 0))
    at = n_steps // 2
    captured_view = []

    class Viewing(_CapturingPolicy):
        def choose(self, runnable):
            if self.steps == self.at:
                captured_view.extend(_cache_view(self.machine))
            return super().choose(runnable)

    machine = Machine(config, policy=DeterministicPolicy())
    machine.enable_journal()
    program = _setup_fn("litmus-sb")(machine)
    captured = []
    machine.policy = Viewing(machine.policy, machine, at, captured)
    machine.run(max_cycles=program.max_cycles)
    assert any(captured_view)

    # The target ran another program and then filled, in every cache,
    # a set the capture does not hold.
    target, _, _ = _run("litmus-mp", config, DeterministicPolicy())
    memmodel = target.memmodel
    for cache, view in zip(memmodel.l1 + memmodel.l2, captured_view):
        index = next(i for i in range(cache.n_sets) if i not in view)
        cache.insert(index * cache.line_size)
    assert _cache_view(target) != captured_view

    program = _restore(target, captured[0], _setup_fn("litmus-sb"))
    assert _cache_view(target) == captured_view
    assert set(memmodel.residency) == {
        line for view in captured_view for lines in view.values()
        for line in lines}
    target.run(max_cycles=program.max_cycles)
    assert (target.now, target.stats.as_dict(), target.memory.snapshot(),
            target.results()) == golden


#: The deterministic litmus-sb run under lazy-wb-assoc.  Update only
#: with a semantics change that moves every schedule the same way.
PINNED_LITMUS_SB_CYCLES = 33


try:
    from hypothesis import given, settings, strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is in the image
    HAVE_HYPOTHESIS = False


if HAVE_HYPOTHESIS:

    @settings(max_examples=100, deadline=None)
    @given(
        program_name=st.sampled_from(
            ("litmus-sb", "litmus-mp", "litmus-inc", "litmus-lb",
             "counter")),
        config_name=st.sampled_from(sorted(CONFIGS)),
        policy_spec=st.sampled_from(
            (("det", 0), ("random", 1), ("random", 7))),
        frac=st.floats(min_value=0.0, max_value=1.0),
        seed=st.sampled_from((1, 3)),
        uses=st.integers(min_value=2, max_value=3),
    )
    def test_property_restore_resume_equals_straight_line(
            program_name, config_name, policy_spec, frac, seed, uses):
        """Any (program, config, policy, capture point, seed): the resumed
        run is indistinguishable from the straight-line one — after each
        of ``uses`` restores of one snapshot, copying on all but the
        last, which takes the captured containers over.  The spent
        snapshot then refuses a further restore."""
        def setup_fn(machine):
            runtime = Runtime(machine)
            arena = SharedArena(machine)
            program = make_program(program_name, seed=seed)
            program.setup(machine, runtime, arena)
            return program

        config = build_config(config_name,
                              make_program(program_name, seed=seed))

        def straight_line(snapshot_at=None):
            machine = Machine(config, policy=_policy(policy_spec))
            machine.enable_journal()
            program = setup_fn(machine)
            captured = []
            if snapshot_at is not None:
                _capture_at(machine, snapshot_at, captured)
            machine.run(max_cycles=program.max_cycles)
            return (
                (machine.now, machine.stats.as_dict(),
                 machine.memory.snapshot(), machine.results()),
                captured[0] if captured else None,
            )

        golden, _ = straight_line()
        n_steps = golden[1]["engine.steps"]
        snapshot_at = 1 + int(frac * max(0, n_steps - 2))
        observed, checkpoint = straight_line(snapshot_at)
        assert observed == golden
        assert checkpoint is not None

        snapshot = checkpoint[0]
        snapshot.uses = uses
        # The first restore lands on a fresh machine, the later ones on
        # the same machine, dirty from the previous resume.
        target = Machine(config, policy=_policy(policy_spec))
        for _ in range(uses):
            program = _restore(target, checkpoint, setup_fn)
            target.run(max_cycles=program.max_cycles)
            resumed = (target.now, target.stats.as_dict(),
                       target.memory.snapshot(), target.results())
            assert resumed == golden
        assert snapshot.uses == 0
        with pytest.raises(SnapshotError, match="spent"):
            _restore(Machine(config, policy=_policy(policy_spec)),
                     checkpoint, setup_fn)


def test_snapshot_requires_journal():
    config = build_config(CONFIG, make_program("litmus-sb", seed=1))
    machine = Machine(config, policy=DeterministicPolicy())
    with pytest.raises(SnapshotError):
        capture(machine)


def test_ghost_replay_names_the_journal_index():
    """A journal that feeds a CPU with no frame left is rejected, and
    the error names the offending journal entry."""
    config = build_config(CONFIG, make_program("litmus-sb", seed=1))
    machine, _, _ = _run("litmus-sb", config, DeterministicPolicy())
    snapshot = machine.snapshot()
    n_entries = snapshot.journal_len
    assert all(not cpu.frames for cpu in machine.cpus)
    # Every program has finished: one more send to cpu 0 has no frame.
    _cpu, now, sync, _push, _feed, post = snapshot.journal[-1]
    snapshot.journal = list(snapshot.journal) + [
        (0, now, sync, None, ("s", None), post)]
    snapshot.journal_len = n_entries + 1
    fresh = Machine(config, policy=DeterministicPolicy())
    with pytest.raises(SnapshotError,
                       match=rf"cpu 0 has no frame to feed at step "
                             rf"{n_entries}$"):
        fresh.restore(snapshot, _setup_fn("litmus-sb"))


@pytest.mark.parametrize("captured_on, restored_on", [
    ("eager-wb", "lazy-wb-assoc"),
    ("lazy-wb-assoc", "eager-wb"),
    ("lazy-wb-assoc", "lazy-timing-simple"),
])
def test_restore_rejects_a_different_config(captured_on, restored_on):
    """A snapshot restores only onto a machine with an equal config;
    anything else is a SnapshotError (the explorer's "fall back to
    stateless"), never a silent mis-resume or a bare TypeError."""
    program = make_program("litmus-sb", seed=1)
    source = build_config(captured_on, program)
    _, _, checkpoint = _run("litmus-sb", source, DeterministicPolicy(),
                            snapshot_at=5)
    target = Machine(build_config(restored_on, program),
                     policy=DeterministicPolicy())
    with pytest.raises(SnapshotError, match="config differs"):
        _restore(target, checkpoint, _setup_fn("litmus-sb"))


def test_restore_rejects_a_different_bound_set():
    """The snapshot covers the CPUs bound at capture; a target with
    another CPU bound, or a setup that binds one more, is a
    SnapshotError, never a resume with a stale CPU."""
    config = build_config(CONFIG, make_program("litmus-sb", seed=1))
    _, _, checkpoint = _run("litmus-sb", config, DeterministicPolicy(),
                            snapshot_at=5)
    assert checkpoint[0].shape.bound == (0, 1)

    def idle(t):
        yield t.alu()

    dirty = Machine(config, policy=DeterministicPolicy())
    dirty.add_thread(idle, cpu_id=3)
    with pytest.raises(SnapshotError, match="bound"):
        _restore(dirty, checkpoint, _setup_fn("litmus-sb"))

    def setup_one_more(machine):
        program = _setup_fn("litmus-sb")(machine)
        machine.add_thread(idle, cpu_id=2)
        return program

    with pytest.raises(SnapshotError, match="bound"):
        _restore(Machine(config, policy=DeterministicPolicy()),
                 checkpoint, setup_one_more)


def test_last_use_hands_the_capture_over():
    """A snapshot with ``uses`` set copies on every restore but the
    last, which takes the captured containers over and spends it."""
    config = build_config(CONFIG, make_program("litmus-inc", seed=1))
    golden, n_steps = _golden_steps("litmus-inc", config, ("det", 0))
    _, _, checkpoint = _run("litmus-inc", config, DeterministicPolicy(),
                            snapshot_at=n_steps // 2)
    snapshot = checkpoint[0]
    snapshot.uses = 2
    machine = Machine(config, policy=DeterministicPolicy())
    _, first, _ = _run("litmus-inc", config, None,
                       machine=(machine, checkpoint))
    assert first == golden and snapshot.state is not None
    _, last, _ = _run("litmus-inc", config, None,
                      machine=(machine, checkpoint))
    assert last == golden and snapshot.state is None
    with pytest.raises(SnapshotError, match="spent"):
        _run("litmus-inc", config, None, machine=(machine, checkpoint))


def _with_books(machine):
    """A :class:`ControlledPolicy` installed on ``machine`` plus an
    attached history recorder and cycle profiler: the books the
    explorer's checkpoints carry."""
    policy = machine.policy = ControlledPolicy()
    return (policy, HistoryRecorder(machine), CycleProfiler(machine))


class _BookCapture(_CapturingPolicy):
    """Captures the machine with ``books`` (the first is the policy it
    delegates to) before step ``at``, next to each book's own save."""

    def __init__(self, machine, at, books):
        super().__init__(books[0], machine, at, [])
        self.books = books

    def choose(self, runnable):
        if self.steps == self.at:
            self.captured.append((self.machine.snapshot(self.books),
                                  [save(book) for book in self.books]))
        self.steps += 1
        return self.inner.choose(runnable)


def test_books_restore_with_the_machine():
    """Books captured with a snapshot load onto the target's books: each
    saves equal to the straight line's at the capture step and again at
    the end of the resumed run, the unbound CPUs' profiler books are left
    alone, the last use spends the books with the machine state, and a
    rejected restore touches no book and consumes no use."""
    program = make_program("litmus-sb", seed=1)
    config = build_config(CONFIG, program)
    setup_fn = _setup_fn("litmus-sb")
    _, n_steps = _golden_steps("litmus-sb", config, ("det", 0))
    machine = Machine(config)
    books = _with_books(machine)
    machine.enable_journal()
    setup_fn(machine)
    machine.policy = _BookCapture(machine, n_steps * 3 // 5, books)
    machine.run(max_cycles=program.max_cycles)
    final = [save(book) for book in books]
    ((snapshot, at_capture),) = machine.policy.captured
    assert snapshot.shape.bound == (0, 1)
    # Non-trivial books: choices made, a commit recorded, a frame live.
    choices, (committed, _, frames, _) = at_capture[0][0], at_capture[1]
    assert choices and committed and any(frames)
    snapshot.uses = 2

    def rejected(target, target_books, match):
        before = [save(book) for book in target_books]
        with pytest.raises(SnapshotError, match=match):
            target.restore(snapshot, setup_fn, target_books)
        assert [save(book) for book in target_books] == before

    eager = Machine(build_config("eager-wb", program))
    rejected(eager, _with_books(eager), "config differs")
    other = Machine(config)
    rejected(other, _with_books(other)[:2], "books")
    assert snapshot.uses == 2

    first = Machine(config)
    first_books = _with_books(first)
    first.restore(snapshot, setup_fn, first_books)
    assert [save(book) for book in first_books] == at_capture
    first.run(max_cycles=program.max_cycles)
    assert [save(book) for book in first_books] == final

    last = Machine(config)
    last_books = _with_books(last)
    unbound = last_books[2]._cpu[2:]
    for books_of_cpu in unbound:
        books_of_cpu.idle = 77
        books_of_cpu.marks.append(5)
    untouched = [save(books_of_cpu) for books_of_cpu in unbound]
    last.restore(snapshot, setup_fn, last_books)
    assert snapshot.uses == 0
    assert snapshot.books is None and snapshot.state is None
    assert [save(books_of_cpu) for books_of_cpu in unbound] == untouched
    for books_of_cpu in unbound:
        books_of_cpu.__init__()
    assert [save(book) for book in last_books] == at_capture
    with pytest.raises(SnapshotError, match="spent"):
        Machine(config).restore(snapshot, setup_fn, last_books)


def _components(component, found):
    """``component`` and every component its ``_state`` reaches."""
    found.append(component)
    for name in type(component)._state:
        value = getattr(component, name)
        parts = value if type(value) is list else [value]
        for part in parts:
            if hasattr(type(part), "_state"):
                _components(part, found)
    return found


def _attribute_names(obj):
    names = set(getattr(obj, "__dict__", ()))
    for cls in type(obj).__mro__:
        names.update(getattr(cls, "__slots__", ()))
    return {name for name in names - {"__dict__", "__weakref__"}
            if hasattr(obj, name)}


#: Mutable fields deliberately outside ``_state``: the derived caches
#: ``_rederive`` rebuilds (HierarchicalMemory's residency registry and
#: WriteBufferVersioning's level list), the generator frames, their
#: call stacks and the runtime handles ghost replay rebuilds, the ready
#: heap every ``Machine.run`` rebuilds, and the bound-CPU set program
#: setup rebuilds (restore checks it against the snapshot's).
NOT_STATE = {"residency", "_levels_desc", "frames", "calls", "rt",
             "_ready", "_bound_cpus"}

#: Recorded in place of a value for an alias (identity-checked only).
_ALIAS = object()


class _UndeclaredWatch(Observer):
    """After every step, names each component attribute outside
    ``_state`` that is no longer the recorded object with an equal
    value (a field a run mutates and then resets — a flushed counter,
    an emptied table — is caught mid-run).  An alias of a declared or
    derived container (the detectors' index tables, each cache's
    residency registry) must stay the same object; its value is the
    declared field's business.  ``books`` are watched with the machine,
    except for the ``Type.field`` names in ``allowed``."""

    def __init__(self, machine, books=(), allowed=()):
        self.changed = set()
        self._recorded = []
        machine.observe(self)
        components = _components(machine, [])
        for book in books:
            _components(book, components)
        covered = {
            id(getattr(component, name))
            for component in components
            for name in type(component)._state + tuple(NOT_STATE)
            if hasattr(component, name)
            and copy_value(getattr(component, name))
            is not getattr(component, name)}
        for component in components:
            for name in _attribute_names(component):
                if (name in type(component)._state or name in NOT_STATE
                        or f"{type(component).__name__}.{name}" in allowed):
                    continue
                value = getattr(component, name)
                before = (_ALIAS if id(value) in covered
                          else copy_value(value))
                self._recorded.append((component, name, value, before))

    def on_step(self, cpu):
        for component, name, value, before in self._recorded:
            now = getattr(component, name)
            if now is not value or (before is not _ALIAS
                                    and now != before):
                self.changed.add(f"{type(component).__name__}.{name}")


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_declared_state_is_complete(config_name):
    """Everything a run changes is declared: every other attribute of
    every component stays the same object, with an equal value, through
    a whole ``counter`` run."""
    program = make_program("counter", seed=1)
    machine = Machine(build_config(config_name, program),
                      policy=DeterministicPolicy())
    watch = _UndeclaredWatch(machine)
    program.setup(machine, Runtime(machine), SharedArena(machine))
    machine.run(max_cycles=program.max_cycles)
    watch.on_step(None)
    assert machine.stats.get("engine.steps") > 0
    assert not watch.changed, (
        f"undeclared mutable state: {sorted(watch.changed)}")


#: Book fields each explored node installs itself, so no checkpoint
#: carries them: the policy's forced map, sleep set and fork hook, and
#: the step recorder's policy link and sleep entries.
NODE_FIELDS = {
    "ControlledPolicy.forced", "ControlledPolicy.sleep",
    "ControlledPolicy.sleep_from", "ControlledPolicy.fork_steps",
    "ControlledPolicy.fork_hook", "StepRecorder.policy",
    "StepRecorder.sleep_from", "StepRecorder._sleep",
    "StepRecorder.sleep_before"}


def test_declared_book_state_is_complete():
    """The books a checkpoint carries declare everything a run changes:
    through a whole ``litmus-sb`` run under a :class:`ControlledPolicy`,
    every other attribute of the policy, the step and history recorders
    and the profiler stays the same object with an equal value, except
    the fields a node installs (:data:`NODE_FIELDS`)."""
    program = make_program("litmus-sb", seed=1)
    machine = Machine(build_config(CONFIG, program),
                      policy=ControlledPolicy())
    policy, history, profiler = _with_books(machine)
    recorder = StepRecorder(machine, policy)
    machine.observe(recorder)
    watch = _UndeclaredWatch(
        machine, books=(policy, recorder, history, profiler),
        allowed=NODE_FIELDS)
    program.setup(machine, Runtime(machine), SharedArena(machine))
    machine.run(max_cycles=program.max_cycles)
    watch.on_step(None)
    assert recorder.footprints and history.history.committed
    assert not watch.changed, (
        f"undeclared mutable book state: {sorted(watch.changed)}")
