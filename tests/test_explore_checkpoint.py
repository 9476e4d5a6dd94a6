"""The explorer's fork-point checkpoints (repro.check.explore).

Checkpointing is a pure optimisation: every node must produce the exact
verdict it would have produced when replayed from cycle 0.  These tests
enforce that differentially — same campaign with checkpoints on and
off, byte-identical reports — and with forced misses (every other
checkpoint dropped before it reaches the stack, so its children resume
from an earlier one or replay from cycle 0).  They also pin the
checkpoints' lifetime rules: every search keeps its captures on its DFS
stack; a bounded search deposits each with one use per child forking
there and every child consumes one, a DPOR drain's serve every child;
nothing outlives the search however it ends (normally, truncated, or
raising from ``report``), and a search leaves the caller's GC
thresholds as it found them.

The snapshot layer itself (capture → restore → resume, bit-for-bit) is
pinned in tests/test_snapshot.py; this file is about the *checkpoint
policy* staying invisible to exploration semantics.
"""

import gc
import itertools
import weakref

import pytest

import repro.check.explore as explore_mod
from repro.check.explore import explore
from repro.check.programs import LITMUS_PROGRAMS
from repro.sim.snapshot import SnapshotError
from repro.spec.conform import LITMUS_DEPTHS
from tests.reference import explore_sleep_sets

CONFIG = "lazy-wb-assoc"
PROGRAMS = ("litmus-sb", "litmus-mp", "litmus-inc")


def _fingerprint(report):
    """Everything a campaign can observably produce, order-insensitive
    only where the explorer itself guarantees order (verdict list order
    is part of the contract, so it is kept)."""
    return (
        report.program, report.config, report.fault, report.seed,
        report.skipped, report.explored, report.pruned,
        report.truncated, report.generations,
        [(v.name, v.failed, v.signature) for v in report.verdicts],
    )


def _spy_captures(monkeypatch):
    """Weak references to every checkpoint captured from now on."""
    captured = []
    capture = explore_mod._capture

    def spy(*args):
        entry = capture(*args)
        captured.append(weakref.ref(entry))
        return entry

    monkeypatch.setattr(explore_mod, "_capture", spy)
    return captured


def _alive(refs):
    return [ref for ref in refs if ref() is not None]


@pytest.fixture
def no_gc():
    """The cyclic GC off, so a checkpoint is dead only if nothing holds
    it: a search must drop its entries, not leave them to a collection."""
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.mark.parametrize("program", PROGRAMS)
def test_checkpoint_matches_stateless(program):
    stateless = explore(program, CONFIG, preemption_bound=2,
                        checkpoint=False)
    checkpointed = explore(program, CONFIG, preemption_bound=2,
                           checkpoint=True)
    assert _fingerprint(checkpointed) == _fingerprint(stateless)
    assert checkpointed.checkpoint
    assert not stateless.checkpoint


def _fail_every_other_restore(monkeypatch):
    """Make every other restore raise :class:`SnapshotError`; returns
    the list that counts the restores attempted."""
    resume = explore_mod._NodeContext.resume
    calls = []

    def flaky(*args):
        calls.append(None)
        if len(calls) % 2:
            raise SnapshotError("injected")
        return resume(*args)

    monkeypatch.setattr(explore_mod._NodeContext, "resume", flaky)
    return calls


@pytest.mark.parametrize("program", LITMUS_PROGRAMS)
def test_dpor_checkpoint_matches_stateless(program):
    """A DPOR drain resumes from stack snapshots; its verdict stream and
    race counters must equal the stateless drain's."""
    kwargs = dict(preemption_bound=None, max_depth=24)
    stateless = explore(program, CONFIG, checkpoint=False, **kwargs)
    checkpointed = explore(program, CONFIG, checkpoint=True, **kwargs)
    assert _fingerprint(checkpointed) == _fingerprint(stateless)
    assert [(v.outcome, v.n_steps) for v in checkpointed.verdicts] == [
        (v.outcome, v.n_steps) for v in stateless.verdicts]
    assert (checkpointed.races, checkpointed.backtracks,
            checkpointed.window_fallbacks) == (
        stateless.races, stateless.backtracks, stateless.window_fallbacks)


def test_dpor_restore_failures_fall_back_to_stateless(monkeypatch):
    """A snapshot that fails to restore costs a replay from cycle 0,
    counted as a fallback, and changes no verdict."""
    kwargs = dict(preemption_bound=None, max_depth=36)
    stateless = explore("litmus-mp", CONFIG, checkpoint=False, **kwargs)
    calls = _fail_every_other_restore(monkeypatch)
    checkpointed = explore("litmus-mp", CONFIG, checkpoint=True, **kwargs)
    assert _fingerprint(checkpointed) == _fingerprint(stateless)
    stats = checkpointed.checkpoint_stats
    assert stats["fallbacks"] == (len(calls) + 1) // 2 > 0
    assert stats["hits"] == len(calls) // 2 > 0


def test_restore_failures_fall_back_to_stateless(monkeypatch):
    """A bounded search counts a failed restore as a DPOR drain does: a
    miss and a fallback, with every verdict unchanged."""
    stateless = explore("litmus-sb", CONFIG, preemption_bound=2,
                        checkpoint=False)
    calls = _fail_every_other_restore(monkeypatch)
    checkpointed = explore("litmus-sb", CONFIG, preemption_bound=2,
                           checkpoint=True)
    assert _fingerprint(checkpointed) == _fingerprint(stateless)
    stats = checkpointed.checkpoint_stats
    assert stats["fallbacks"] == (len(calls) + 1) // 2 > 0
    assert stats["hits"] == len(calls) // 2 > 0
    assert stats["misses"] == 1 + stats["fallbacks"]


def test_checkpoint_cache_actually_used(monkeypatch):
    resume = explore_mod._NodeContext.resume
    restores = []

    def spy(*args):
        restores.append(None)
        return resume(*args)

    monkeypatch.setattr(explore_mod._NodeContext, "resume", spy)
    report = explore("litmus-inc", CONFIG, preemption_bound=2,
                     checkpoint=True)
    stats = report.checkpoint_stats
    assert stats is not None
    assert stats["deposits"] > 0
    assert stats["hits"] > 0
    # A fallback means a restore failed and the node silently replayed
    # from cycle 0 — allowed for safety, but it must never happen on
    # the supported litmus configs.
    assert stats["fallbacks"] == 0
    assert len(restores) == stats["hits"]


def _spy_deposits(monkeypatch, keep=None, hold=True):
    """``(path, entry, uses)`` of every checkpoint deposited on a search
    stack from now on: the choices leading to its state, the snapshot
    (None unless ``hold``) and its ``uses`` as deposited.
    ``keep(index)``, if given, says whether the deposit numbered
    ``index`` reaches the stack at all."""
    deposits = []
    deposit = explore_mod._Stack.deposit
    count = itertools.count()

    def spy(stack, k, entry, counted):
        if keep is not None and not keep(next(count)):
            return
        deposit(stack, k, entry, counted)
        deposits.append((tuple(stack.choices[:k]), entry if hold else None,
                         entry.uses))

    monkeypatch.setattr(explore_mod._Stack, "deposit", spy)
    return deposits


def _spy_prefixes(monkeypatch):
    """The prefix of every node run from now on."""
    prefixes = []
    run_node = explore_mod.run_node

    def spy(*args, **kwargs):
        prefixes.append(kwargs["prefix"])
        return run_node(*args, **kwargs)

    monkeypatch.setattr(explore_mod, "run_node", spy)
    return prefixes


def test_forced_misses_keep_verdicts_identical(monkeypatch):
    """Children whose checkpoint is gone resume from an earlier one or
    replay from cycle 0; verdicts must not notice.  Every other captured
    entry is dropped before it reaches the stack."""
    stateless = explore("litmus-sb", CONFIG, preemption_bound=2,
                        checkpoint=False)
    kept = _spy_deposits(monkeypatch, keep=lambda index: index % 2 == 0)
    forced = explore("litmus-sb", CONFIG, preemption_bound=2,
                     checkpoint=True)
    assert _fingerprint(forced) == _fingerprint(stateless)
    stats = forced.checkpoint_stats
    assert 0 < len(kept) < stats["deposits"]
    # The root always misses; a dropped deposit's children miss too
    # unless an earlier state's snapshot serves them.
    assert stats["misses"] > 1
    assert stats["hits"] > 0
    assert stats["fallbacks"] == 0


@pytest.mark.parametrize("program", ("litmus-sb", "litmus-mp"))
def test_serial_drain_consumes_every_deposit(monkeypatch, no_gc, program):
    """A DPOR drain keeps its snapshots on the DFS stack, at most one
    per state below ``max_depth``, and frees them with the stack: the
    drain ends with nothing left alive, without a collection."""
    captured = _spy_captures(monkeypatch)
    depth = LITMUS_DEPTHS[program]
    report = explore(program, CONFIG, preemption_bound=None,
                     max_depth=depth, checkpoint=True)
    stats = report.checkpoint_stats
    assert not report.truncated
    assert stats["deposits"] == len(captured) > 0
    assert stats["hits"] > stats["deposits"]
    assert stats["fallbacks"] == 0
    assert 0 < stats["peak_live"] <= depth
    assert _alive(captured) == []


def test_truncated_campaign_leaves_cache_empty(monkeypatch, no_gc):
    captured = _spy_captures(monkeypatch)
    deposits = _spy_deposits(monkeypatch, hold=False)
    report = explore("litmus-sb", CONFIG, preemption_bound=2,
                     max_schedules=20, checkpoint=True)
    assert report.truncated
    # The cut stack's checkpoints were never consumed ...
    assert sum(uses for _, _, uses in deposits) > report.checkpoint_stats[
        "hits"]
    # ... and went with the search, without a collection.
    assert captured and _alive(captured) == []


def test_cache_lookup_consumes_uses(monkeypatch):
    """A bounded search deposits each capture on the stack with one use
    per child forking at its state; each child's restore consumes one,
    and the last use takes the copies over.  The root never forks: its
    one miss."""
    deposits = _spy_deposits(monkeypatch)
    prefixes = _spy_prefixes(monkeypatch)
    report = explore("litmus-sb", CONFIG, preemption_bound=2,
                     checkpoint=True)
    stats = report.checkpoint_stats
    assert not report.truncated
    assert stats["deposits"] == len(deposits) > 0
    for path, _, uses in deposits:
        forking = sum(len(prefix) == len(path) + 1
                      and prefix[:len(path)] == path for prefix in prefixes)
        assert uses == forking > 0
    assert stats["hits"] == sum(uses for _, _, uses in deposits)
    assert stats["misses"] == 1
    assert all(entry.uses == 0 for _, entry, _ in deposits)
    assert all(entry.state is None for _, entry, _ in deposits)


#: ``peak_live`` of each seed-1 bound-2 search (``explore
#: --preemption-bound 2``): the most snapshots one stack held at once.
PEAK_LIVE = {"litmus-sb": 31, "litmus-mp": 33, "litmus-inc": 31,
             "litmus-lb": 31, "litmus-corr": 32, "litmus-token-handoff": 5}


@pytest.mark.parametrize("program", sorted(PEAK_LIVE))
def test_bounded_search_holds_one_path(program):
    """A bounded search holds at most one snapshot per state of its
    current path, never a whole generation."""
    report = explore(program, CONFIG, seed=1, preemption_bound=2,
                     checkpoint=True)
    peak = report.checkpoint_stats["peak_live"]
    assert peak == PEAK_LIVE[program]
    assert peak <= max(verdict.n_steps for verdict in report.verdicts)


def test_gc_thresholds_restored_after_explore():
    """Both kinds of search (bounded, DPOR drain) run under the caller's
    GC thresholds and leave them untouched."""
    saved = gc.get_threshold()
    try:
        gc.set_threshold(777, 11, 12)
        for bound in (1, None):
            seen = []
            explore("litmus-sb", CONFIG, preemption_bound=bound,
                    max_depth=12,
                    report=lambda verdict: seen.append(gc.get_threshold()))
            assert seen and all(t == (777, 11, 12) for t in seen)
            assert gc.get_threshold() == (777, 11, 12)
    finally:
        gc.set_threshold(*saved)


def test_gc_thresholds_restored_when_report_raises(monkeypatch, no_gc):
    class Stop(Exception):
        pass

    def report(verdict):
        raise Stop()

    captured = _spy_captures(monkeypatch)
    saved = gc.get_threshold()
    try:
        gc.set_threshold(777, 11, 12)
        with pytest.raises(Stop):
            explore("litmus-sb", CONFIG, preemption_bound=1,
                    report=report)
        assert gc.get_threshold() == (777, 11, 12)
        # The root's captures were deposited on a stack that never
        # forked; they went with the search.
        assert captured and _alive(captured) == []
    finally:
        gc.set_threshold(*saved)


def test_checkpoint_matches_stateless_parallel():
    """Searches sharded whole across workers, each owning its
    checkpoints, reproduce the serial searches exactly: verdicts, the
    stateless control's fingerprint and the checkpoint counters."""
    from repro.check.explore import search_failure, search_spec
    from repro.harness.parallel import run_campaign

    kwargs = dict(preemption_bound=2, max_schedules=2000)
    stateless = [explore(program, CONFIG, checkpoint=False, **kwargs)
                 for program in PROGRAMS]
    serial = [explore(program, CONFIG, checkpoint=True, **kwargs)
              for program in PROGRAMS]
    sharded = run_campaign(
        [search_spec(program, CONFIG, checkpoint=True, **kwargs)
         for program in PROGRAMS], jobs=2, failure_result=search_failure)
    for control, one, other in zip(stateless, serial, sharded,
                                   strict=True):
        assert _fingerprint(other) == _fingerprint(control)
        assert _fingerprint(other) == _fingerprint(one)
        assert other.checkpoint_stats == one.checkpoint_stats
        assert other.checkpoint_stats["hits"] > 0


def test_stateless_mode_deposits_nothing(monkeypatch):
    captured = _spy_captures(monkeypatch)
    deposits = _spy_deposits(monkeypatch, hold=False)
    report = explore("litmus-sb", CONFIG, preemption_bound=1,
                     checkpoint=False)
    assert report.checkpoint_stats is None
    assert captured == []
    assert deposits == []


def test_litmus_mp_drain_shape_is_pinned():
    """The seed-1 litmus-mp drain at its conformance depth: how many
    schedules it explores and prunes, its generations, its race and
    checkpoint counters are fixed points, for DPOR and for the
    sleep-set enumeration it replaced.  A restore-cost change must
    leave every one of them where it is."""
    depth = LITMUS_DEPTHS["litmus-mp"]
    report = explore("litmus-mp", CONFIG, seed=1, preemption_bound=None,
                     max_depth=depth, checkpoint=True)
    assert not report.truncated
    assert (report.explored, report.pruned) == (199, 0)
    assert len(report.generations) == 29
    assert (report.races, report.backtracks,
            report.window_fallbacks) == (396, 198, 0)
    assert report.checkpoint_stats == {
        "hits": 197, "misses": 2, "deposits": 13, "fallbacks": 0,
        "peak_live": 5}
    reference = explore_sleep_sets("litmus-mp", CONFIG, seed=1,
                                   max_depth=depth, checkpoint=True)
    assert not reference.truncated
    assert (reference.explored, reference.pruned) == (523, 3014)
    assert len(reference.generations) == 29
    assert reference.checkpoint_stats == {
        "hits": 3536, "misses": 1, "deposits": 3536, "fallbacks": 0,
        "peak_live": 216}


#: (live_steps, restored_steps) of each seed-1 checkpointed search:
#: the unbounded drains at their conformance depths, then the bound-2
#: sweep (``explore --preemption-bound 2``).  A checkpoint captured or
#: reused less often moves steps from the second number to the first.
WORK = {
    ("litmus-sb", None): (7657, 4679),
    ("litmus-mp", None): (5961, 4077),
    ("litmus-sb", 2): (1857, 2595),
    ("litmus-mp", 2): (1834, 2877),
    ("litmus-inc", 2): (2320, 2700),
    ("litmus-lb", 2): (1955, 2689),
    ("litmus-corr", 2): (2460, 2247),
    ("litmus-token-handoff", 2): (140, 87),
}

#: The drains' summed verdict ``n_steps``: engine steps, a restored
#: prefix included (what the verdicts read when they counted policy
#: choices, which every run of a drain matches).
VERDICT_STEPS = {("litmus-sb", None): 12_336, ("litmus-mp", None): 10_038}


@pytest.mark.parametrize("program, bound", sorted(
    WORK, key=lambda key: (key[1] is not None, key)))
def test_work_counters_are_pinned(program, bound):
    """Exact work counters: checkpoint reuse shows as restored steps,
    with no clock involved.  Live plus restored steps are the steps a
    stateless search runs, all of them live."""
    kwargs = dict(seed=1, preemption_bound=bound,
                  max_depth=LITMUS_DEPTHS[program] if bound is None
                  else None)
    report = explore(program, CONFIG, checkpoint=True, **kwargs)
    assert (report.live_steps, report.restored_steps) == WORK[
        (program, bound)]
    if (program, bound) in VERDICT_STEPS:
        assert sum(verdict.n_steps for verdict in report.verdicts) == (
            VERDICT_STEPS[(program, bound)])
    if bound is not None:
        stateless = explore(program, CONFIG, checkpoint=False, **kwargs)
        assert (stateless.live_steps, stateless.restored_steps) == (
            sum(WORK[(program, bound)]), 0)


def test_unbound_cpus_stay_as_built_through_a_drain(monkeypatch):
    """The snapshot and the observers' books cover the bound CPUs only,
    which is exact because a CPU no program was bound to never leaves
    its just-built state: after a whole drain on the search's restore
    context, every unbound CPU's Cpu, IsaState, TxState tree and
    profiler books save equal to a fresh machine's."""
    from repro.check.fuzz import build_config
    from repro.check.programs import make_program
    from repro.obs.profiler import CycleProfiler
    from repro.sim.engine import Machine
    from repro.sim.snapshot import save

    contexts = []
    init = explore_mod._NodeContext.__init__

    def spy(self, config):
        init(self, config)
        contexts.append(self)

    monkeypatch.setattr(explore_mod._NodeContext, "__init__", spy)
    report = explore("litmus-mp", CONFIG, preemption_bound=None,
                     max_depth=LITMUS_DEPTHS["litmus-mp"], checkpoint=True)
    assert report.checkpoint_stats["hits"] > 0
    (ctx,) = contexts
    machine = ctx.machine
    fresh = Machine(build_config(CONFIG, make_program("litmus-mp", seed=1)))
    fresh_books = CycleProfiler(fresh)._cpu
    unbound = [cpu.cpu_id for cpu in machine.cpus
               if cpu.cpu_id not in machine._bound_cpus]
    assert machine._bound_cpus == (0, 1) and unbound == [2, 3]
    for cpu_id in unbound:
        assert save(machine.cpus[cpu_id]) == save(fresh.cpus[cpu_id])
        assert save(machine.htm.states[cpu_id]) == save(
            fresh.htm.states[cpu_id])
        assert save(ctx.profiler._cpu[cpu_id]) == save(
            fresh_books[cpu_id])
