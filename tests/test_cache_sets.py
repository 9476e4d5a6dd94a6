"""Caches allocate a set on its first fill, and that is unobservable.

:class:`~repro.memsys.cache.Cache` keeps only the sets a run has filled
(a dict from set index to the set's LRU-ordered lines).  Its contract
is that no probe can tell it from the cache that builds every set up
front, kept verbatim as ``EagerCache`` in ``tests/reference.py``:

* random ``lookup``/``insert``/``invalidate``/``contains`` sequences on
  small geometries, two caches per side sharing a residency registry,
  give the same return values, counters, per-set LRU order and
  registry on both sides;
* whole check programs on the timing configurations give the same
  cycles, steps, stats and memory with either cache swapped in;

and the point of it is pinned too: a freshly built paper machine holds
no sets at all, and building one stays under 1 MiB.
"""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.fuzz import CONFIGS, FAST_CONFIGS
from repro.check.programs import PROGRAMS, make_program
from repro.common.errors import ReproError
from repro.common.params import functional_config, paper_config
from repro.common.stats import Stats
from repro.mem.layout import SharedArena
from repro.memsys.cache import Cache
from repro.runtime.core import Runtime
from repro.sim.engine import Machine
from repro.sim.schedule import make_policy

from tests.reference import EagerCache, install_eager_caches

LINE = 32
COUNTERS = ("n_hits", "n_misses", "n_evictions", "n_fills",
            "n_invalidations")

#: (sets, ways) geometries small enough that random streams collide in
#: sets, evict and refill.
GEOMETRIES = ((4, 2), (2, 1), (1, 4), (8, 2))

#: One step: (operation, which cache, line number, byte offset).
_steps = st.lists(
    st.tuples(st.sampled_from(("lookup", "insert", "invalidate",
                               "contains")),
              st.integers(0, 1), st.integers(0, 23),
              st.integers(0, LINE - 1)),
    max_size=80)


def _pair(cls, geometry):
    """Two caches of one geometry over one shared registry."""
    n_sets, ways = geometry
    registry = {}
    stats = Stats()
    caches = [cls("l1", n_sets * ways * LINE, ways, LINE,
                  stats.scope(f"cpu{owner}"), registry=registry,
                  owner=owner)
              for owner in (0, 1)]
    return caches, registry, stats


def _registry_view(registry):
    """The registry with each holder named by its owner, holder order
    kept (snoops invalidate in that order)."""
    return {line: [cache.owner for cache in holders]
            for line, holders in registry.items()}


@settings(max_examples=200, deadline=None)
@given(geometry=st.sampled_from(GEOMETRIES), steps=_steps)
def test_lazy_sets_match_the_eager_cache(geometry, steps):
    eager, eager_registry, eager_stats = _pair(EagerCache, geometry)
    lazy, lazy_registry, lazy_stats = _pair(Cache, geometry)
    filled = [set(), set()]
    for operation, which, line_no, offset in steps:
        addr = line_no * LINE + offset
        expected = getattr(eager[which], operation)(addr)
        assert getattr(lazy[which], operation)(addr) == expected, (
            operation, which, addr)
        if operation == "insert":
            filled[which].add(line_no % geometry[0])
    assert _registry_view(lazy_registry) == _registry_view(eager_registry)
    for which, (reference, cache) in enumerate(zip(eager, lazy)):
        for name in COUNTERS:
            assert getattr(cache, name) == getattr(reference, name), name
        # Exactly the filled sets exist, each in the eager LRU order.
        assert set(cache._sets) == filled[which]
        for index, reference_set in enumerate(reference._sets):
            assert (list(cache._sets.get(index, ()))
                    == list(reference_set)), index
        assert cache.resident_lines() == reference.resident_lines()
        cache.flush_stats()
        reference.flush_stats()
    assert lazy_stats.as_dict() == eager_stats.as_dict()


#: The timing cells of the fuzz matrix: the only ones with caches.
TIMING_CONFIGS = tuple(name for name in CONFIGS if name not in FAST_CONFIGS)


def _run_observed(program_name, config_name, policy_name, eager):
    """Run one check program on a timing cell; every observable."""
    program = make_program(program_name, seed=1)
    config = functional_config(
        n_cpus=max(4, program.min_cpus()), **CONFIGS[config_name])
    if not program.supports(config):
        return None
    machine = Machine(config, policy=make_policy(policy_name, seed=1))
    if eager:
        install_eager_caches(machine)
    error = None
    try:
        program.setup(machine, Runtime(machine), SharedArena(machine))
        machine.run(max_cycles=program.max_cycles)
    except ReproError as exc:
        error = f"{type(exc).__name__}: {exc}"
    return {"stats": machine.stats.as_dict(),
            "memory": machine.memory.snapshot(), "error": error}


@pytest.mark.parametrize("config_name", TIMING_CONFIGS)
@pytest.mark.parametrize("program_name", sorted(PROGRAMS))
def test_timing_runs_match_with_eager_caches(program_name, config_name):
    compared = 0
    for policy_name in ("det", "pct"):
        lazy = _run_observed(program_name, config_name, policy_name, False)
        if lazy is None:
            continue
        eager = _run_observed(program_name, config_name, policy_name, True)
        assert eager == lazy, f"{program_name}:{config_name}:{policy_name}"
        assert lazy["stats"]["cycles"] > 0
        compared += 1
    if compared == 0:
        pytest.skip(f"{program_name} does not support {config_name}")


def test_install_eager_caches_swaps_every_cache():
    machine = install_eager_caches(Machine(paper_config(n_cpus=2)))
    caches = machine.memmodel.l1 + machine.memmodel.l2
    assert {type(cache) for cache in caches} == {EagerCache}
    assert all(len(cache._sets) == cache.n_sets for cache in caches)
    assert all(cache._registry is machine.memmodel.residency
               for cache in caches)


def test_fresh_paper_machine_holds_no_cache_sets():
    memmodel = Machine(paper_config(n_cpus=16)).memmodel
    caches = memmodel.l1 + memmodel.l2
    assert len(caches) == 32
    assert sum(len(cache._sets) for cache in caches) == 0
    assert memmodel.residency == {}


def test_building_a_paper_machine_stays_under_one_mib():
    # Warm up first, so one-off module-level allocations (interned
    # names, lazily built tables) are not charged to the build.
    Machine(paper_config(n_cpus=2))
    tracemalloc.start()
    try:
        machine = Machine(paper_config(n_cpus=16))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert machine.config.n_cpus == 16
    # Eager sets cost ~4.9 MiB here (36,864 empty OrderedDicts).
    assert peak < 1 << 20, f"building took {peak / (1 << 20):.2f} MiB"
