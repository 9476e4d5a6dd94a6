"""The explorer's fork-point checkpoint cache (repro.check.explore).

Checkpointing is a pure optimisation: every node must produce the exact
verdict it would have produced when replayed from cycle 0.  These tests
enforce that differentially — same campaign with the cache on and off,
byte-identical reports — and with forced misses (a cache that drops
every other deposit, so half the children replay from cycle 0).  They
also pin the cache's lifetime rules: every deposit is consumed by its
children, nothing outlives the campaign, and the campaign's GC scope
is undone however it ends.  A DPOR drain keeps its snapshots on its
DFS stack instead of the cache; the same differentials (stateless
control, injected restore failures) and lifetime rules cover it.

The snapshot layer itself (capture → restore → resume, bit-for-bit) is
pinned in tests/test_snapshot.py; this file is about the *cache policy*
staying invisible to exploration semantics.
"""

import gc
import weakref

import pytest

import repro.check.explore as explore_mod
from repro.check.explore import CheckpointCache, _Checkpoint, explore
from repro.check.programs import LITMUS_PROGRAMS
from repro.harness.parallel import GC_GEN0_THRESHOLD
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


def _fresh_cache(cache=None):
    """Install a fresh worker-local cache; returns it for inspection."""
    cache = cache if cache is not None else CheckpointCache()
    explore_mod._CHECKPOINTS = cache
    explore_mod._CONTEXTS.clear()
    return cache


@pytest.fixture(autouse=True)
def _restore_cache():
    yield
    _fresh_cache()


@pytest.mark.parametrize("program", PROGRAMS)
def test_checkpoint_matches_stateless(program):
    stateless = explore(program, CONFIG, preemption_bound=2,
                        checkpoint=False)
    _fresh_cache()
    checkpointed = explore(program, CONFIG, preemption_bound=2,
                           checkpoint=True)
    assert _fingerprint(checkpointed) == _fingerprint(stateless)
    assert checkpointed.checkpoint
    assert not stateless.checkpoint


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
    restore = explore_mod._restore_node
    calls = []

    def flaky(*args):
        calls.append(None)
        if len(calls) % 2:
            raise SnapshotError("injected")
        return restore(*args)

    monkeypatch.setattr(explore_mod, "_restore_node", flaky)
    checkpointed = explore("litmus-mp", CONFIG, checkpoint=True, **kwargs)
    assert _fingerprint(checkpointed) == _fingerprint(stateless)
    stats = checkpointed.checkpoint_stats
    assert stats["fallbacks"] == (len(calls) + 1) // 2 > 0
    assert stats["hits"] == len(calls) // 2 > 0


def test_checkpoint_cache_actually_used():
    cache = _fresh_cache()
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
    assert cache.stats["hits"] == stats["hits"]


class _DroppingCache(CheckpointCache):
    """Discards every other deposit, so half the children miss."""

    def __init__(self):
        super().__init__()
        self.dropped = 0

    def deposit(self, key, entry):
        if (self.stats["deposits"] + self.dropped) % 2:
            self.dropped += 1
            return
        super().deposit(key, entry)


def test_forced_misses_keep_verdicts_identical():
    """Children whose checkpoint is gone replay from cycle 0; verdicts
    must not notice."""
    stateless = explore("litmus-sb", CONFIG, preemption_bound=2,
                        checkpoint=False)
    cache = _fresh_cache(_DroppingCache())
    forced = explore("litmus-sb", CONFIG, preemption_bound=2,
                     checkpoint=True)
    assert _fingerprint(forced) == _fingerprint(stateless)
    stats = forced.checkpoint_stats
    assert cache.dropped > 0
    # The root always misses; every dropped deposit's child misses too.
    assert stats["misses"] > 1
    assert stats["hits"] > 0
    assert stats["fallbacks"] == 0


class _SpyCache(CheckpointCache):
    """Records how many entries were still live when explore() emptied
    the cache on its way out."""

    def __init__(self):
        super().__init__()
        self.live_at_clear = []

    def clear(self):
        self.live_at_clear.append(len(self))
        super().clear()


@pytest.mark.parametrize("program", ("litmus-sb", "litmus-mp"))
def test_serial_drain_consumes_every_deposit(monkeypatch, program):
    """A DPOR drain keeps its snapshots on the DFS stack, at most one
    per state below ``max_depth``, and frees them with the stack: the
    drain ends with nothing left alive and the fork-point cache
    untouched."""
    cache = _fresh_cache(_SpyCache())
    captured = []
    capture = explore_mod._capture

    def spy(*args):
        entry = capture(*args)
        captured.append(weakref.ref(entry))
        return entry

    monkeypatch.setattr(explore_mod, "_capture", spy)
    depth = LITMUS_DEPTHS[program]
    report = explore(program, CONFIG, preemption_bound=None,
                     max_depth=depth, checkpoint=True)
    stats = report.checkpoint_stats
    assert not report.truncated
    assert stats["deposits"] == len(captured) > 0
    assert stats["hits"] > stats["deposits"]
    assert stats["fallbacks"] == 0
    assert 0 < stats["peak_live"] <= depth
    gc.collect()
    assert [ref for ref in captured if ref() is not None] == []
    assert cache.stats["deposits"] == 0
    assert len(explore_mod._CHECKPOINTS) == 0


def test_truncated_campaign_leaves_cache_empty():
    cache = _fresh_cache(_SpyCache())
    report = explore("litmus-sb", CONFIG, preemption_bound=2,
                     max_schedules=20, checkpoint=True)
    assert report.truncated
    # The cut frontier's checkpoints were never consumed ...
    assert cache.live_at_clear[-1] > 0
    # ... and explore() freed them anyway.
    assert len(cache) == 0


def _entry(generation, uses=1):
    entry = _Checkpoint()
    entry.generation = generation
    entry.uses = uses
    return entry


def test_cache_lookup_consumes_and_generations_expire():
    cache = CheckpointCache()
    base = ("p", "c", None, 1, True)
    cache.begin_generation(0)
    cache.deposit((base, (0,)), _entry(0, uses=2))
    cache.deposit((base, (1,)), _entry(0))
    # The fork point of prefix (0, 1) is the entry at choices (0,).
    assert cache.lookup(base, (0, 1)) is not None
    assert cache.lookup(base, (0, 0)) is not None
    assert cache.lookup(base, (0, 1)) is None   # both uses spent
    assert cache.lookup(base, ()) is None       # the root never forks
    assert cache.stats == {"hits": 2, "misses": 2, "deposits": 2,
                           "fallbacks": 0}
    # A child routed elsewhere never consumes (1,): the wave after its
    # children's wave drops it, but keeps the previous wave's entries.
    cache.begin_generation(1)
    cache.deposit((base, (1, 0)), _entry(1))
    assert len(cache) == 2
    cache.begin_generation(2)
    assert len(cache) == 1
    assert cache.lookup(base, (1, 0, 1)) is not None
    assert len(cache) == 0


def test_gc_thresholds_restored_after_explore():
    saved = gc.get_threshold()
    seen = []
    try:
        gc.set_threshold(777, 11, 12)
        explore("litmus-sb", CONFIG, preemption_bound=1,
                report=lambda verdict: seen.append(gc.get_threshold()))
        assert seen and all(t == (GC_GEN0_THRESHOLD, 11, 12)
                            for t in seen)
        assert gc.get_threshold() == (777, 11, 12)
    finally:
        gc.set_threshold(*saved)


def test_gc_thresholds_restored_when_report_raises():
    class Stop(Exception):
        pass

    def report(verdict):
        raise Stop()

    saved = gc.get_threshold()
    try:
        gc.set_threshold(777, 11, 12)
        with pytest.raises(Stop):
            explore("litmus-sb", CONFIG, preemption_bound=1,
                    report=report)
        assert gc.get_threshold() == (777, 11, 12)
        assert len(explore_mod._CHECKPOINTS) == 0
    finally:
        gc.set_threshold(*saved)


def test_checkpoint_matches_stateless_parallel():
    """Sharded exploration with worker-local caches and checkpoint
    affinity still reproduces the stateless campaign exactly."""
    kwargs = dict(preemption_bound=2, max_schedules=2000)
    stateless = explore("litmus-mp", CONFIG, jobs=1, checkpoint=False,
                        **kwargs)
    checkpointed = explore("litmus-mp", CONFIG, jobs=3, checkpoint=True,
                           **kwargs)
    assert _fingerprint(checkpointed)[:-1] == _fingerprint(stateless)[:-1]
    assert [(v.name, v.failed, v.signature)
            for v in checkpointed.verdicts] \
        == [(v.name, v.failed, v.signature) for v in stateless.verdicts]


def test_stateless_mode_deposits_nothing():
    cache = _fresh_cache()
    report = explore("litmus-sb", CONFIG, preemption_bound=1,
                     checkpoint=False)
    assert report.checkpoint_stats is None
    assert cache.stats["deposits"] == 0
    assert not cache._entries


def test_litmus_mp_drain_shape_is_pinned():
    """The seed-1 litmus-mp drain at its conformance depth: how many
    schedules it explores and prunes, its generations, its race and
    checkpoint counters are fixed points, for DPOR and for the
    sleep-set enumeration it replaced.  A restore-cost change must
    leave every one of them where it is."""
    depth = LITMUS_DEPTHS["litmus-mp"]
    _fresh_cache()
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
    _fresh_cache()
    reference = explore_sleep_sets("litmus-mp", CONFIG, seed=1,
                                   max_depth=depth, checkpoint=True)
    assert not reference.truncated
    assert (reference.explored, reference.pruned) == (523, 3014)
    assert len(reference.generations) == 29
    assert reference.checkpoint_stats == {
        "hits": 3536, "misses": 1, "deposits": 3536, "fallbacks": 0,
        "peak_live": 216}


def test_unbound_cpus_stay_pristine_through_a_drain():
    """The snapshot and the observers' books cover the bound CPUs only,
    which is exact because a CPU no program was bound to never leaves
    its just-built state: after a whole drain on the pooled context,
    every unbound CPU's Cpu, IsaState, TxState tree and profiler books
    save equal to a fresh machine's."""
    from repro.check.fuzz import build_config
    from repro.check.programs import make_program
    from repro.obs.profiler import CycleProfiler
    from repro.sim.engine import Machine
    from repro.sim.snapshot import save

    _fresh_cache()
    report = explore("litmus-mp", CONFIG, preemption_bound=None,
                     max_depth=LITMUS_DEPTHS["litmus-mp"], checkpoint=True)
    assert report.checkpoint_stats["hits"] > 0
    ctx = explore_mod._CONTEXTS[("litmus-mp", CONFIG)]
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
