"""Source-set DPOR (repro.check.por) and the drains it runs.

* Synthetic traces pin the race analysis: a plain race, a race already
  covered by an initial in the backtrack set, the fallback when no
  initial is in the candidate window, the two delivery edges, and the
  vector clocks against a naive transitive closure.
* The class-coverage differential: on every litmus program, DPOR must
  complete every Mazurkiewicz class the sleep-set enumeration
  (tests/reference.py) completes.  Its depth is 12 steps deeper: the
  depth-bounded space is not closed under reordering, so at equal
  depths DPOR misses classes on the boundary.
"""

import random

import pytest

import repro.check.explore as explore_mod
from repro.check.explore import explore
from repro.check.por import (
    Footprint,
    RaceStats,
    add_backtracks,
    initials,
    vector_clocks,
)
from repro.check.programs import LITMUS_PROGRAMS
from tests.reference import explore_sleep_sets

CONFIG = "lazy-wb-assoc"
NOTHING = frozenset()


def fp(reads=(), writes=(), global_=False):
    return Footprint(frozenset(reads), frozenset(writes), global_)


def analyse(choices, footprints, deliveries=None, candidates=None,
            n_cpus=2, backtrack=None, sleeping=None):
    """Run the race analysis over a whole synthetic trace; returns
    (races, backtrack sets, stats)."""
    n = len(choices)
    deliveries = deliveries or [NOTHING] * n
    candidates = candidates or [tuple(range(n_cpus))] * n
    backtrack = backtrack or [{choice} for choice in choices]
    sleeping = sleeping or [{}] * n
    clocks, races = vector_clocks(choices, footprints, deliveries, n_cpus)
    stats = RaceStats()
    add_backtracks(choices, candidates, clocks, races, backtrack,
                   sleeping, stats)
    return races, backtrack, stats


# ----------------------------------------------------------------------
# Races and backtrack sets
# ----------------------------------------------------------------------


def test_a_race_adds_the_other_cpu_before_it():
    races, backtrack, stats = analyse(
        [0, 1], [fp(writes={5}), fp(reads={5})])
    assert races == [(0, 1)]
    assert backtrack == [{0, 1}, {1}]
    assert (stats.races, stats.insertions, stats.fallbacks) == (1, 1, 0)


def test_independent_steps_do_not_race():
    races, backtrack, stats = analyse(
        [0, 1], [fp(writes={5}), fp(writes={6})])
    assert races == []
    assert backtrack == [{0}, {1}]


def test_an_initial_already_in_backtrack_covers_the_race():
    races, backtrack, stats = analyse(
        [0, 1], [fp(writes={5}), fp(writes={5})],
        backtrack=[{0, 1}, {1}])
    assert races == [(0, 1)]
    assert backtrack == [{0, 1}, {1}]
    assert (stats.races, stats.insertions) == (1, 0)


def test_a_sleeping_initial_covers_the_race():
    races, backtrack, stats = analyse(
        [0, 1], [fp(writes={5}), fp(writes={5})],
        sleeping=[{1: (fp(writes={5}), 0)}, {}])
    assert races == [(0, 1)]
    assert backtrack == [{0}, {1}]
    assert stats.insertions == 0


def test_the_initial_is_the_first_independent_step():
    """Step 1 (CPU 2) does not happen after step 0 and happens before
    the racing step 2 (CPU 1): the only initial of notdep(0).2 is CPU 2,
    so reversing the race starts with CPU 2, not CPU 1."""
    choices = [0, 2, 1]
    footprints = [fp(writes={5}), fp(writes={7}), fp(reads={7},
                                                     writes={5})]
    races, backtrack, stats = analyse(choices, footprints, n_cpus=3)
    assert (0, 2) in races
    clocks, _ = vector_clocks(choices, footprints, [NOTHING] * 3, 3)
    assert initials(choices, clocks, 0, 2) == [2]
    assert backtrack[0] == {0, 2}


def test_no_in_window_initial_falls_back_to_every_candidate():
    """CPU 1 is the only initial but is outside the window at step 0:
    every in-window candidate is added instead, and counted."""
    races, backtrack, stats = analyse(
        [0, 1], [fp(writes={5}), fp(writes={5})],
        candidates=[(0, 2), (1,)], n_cpus=3)
    assert races == [(0, 1)]
    assert backtrack[0] == {0, 2}
    assert (stats.fallbacks, stats.insertions) == (1, 1)


def test_a_covered_race_is_not_reported():
    """0 -> 1 -> 2 and 0 -> 2 directly: (0, 2) is no race."""
    races, _, _ = analyse(
        [0, 1, 2],
        [fp(writes={5}), fp(reads={5}, writes={6}), fp(reads={5, 6})],
        n_cpus=3)
    assert races == [(0, 1), (1, 2)]


def test_a_delivery_happens_before_the_victims_next_step():
    """A violation posted to CPU 1 orders its next step after the
    post, though the footprints are disjoint."""
    races, backtrack, _ = analyse(
        [0, 1], [fp(writes={5}), fp(reads={6})],
        deliveries=[frozenset({1}), NOTHING])
    assert races == [(0, 1)]
    assert backtrack[0] == {0, 1}


def test_the_victims_step_happens_before_a_later_delivery_to_it():
    """CPU 1 ran an independent step, then CPU 0 delivered to it: the
    delivery replaces CPU 1's pending op, so the two do not commute.
    Without this edge the explorer missed litmus-lb classes."""
    races, backtrack, _ = analyse(
        [1, 0], [fp(reads={6}), fp(writes={5})],
        deliveries=[NOTHING, frozenset({1})])
    assert races == [(0, 1)]
    assert backtrack[0] == {1, 0}


def _naive_races(choices, footprints, deliveries):
    """Races straight from the definition: a direct edge between steps
    of two CPUs that no path through a third step covers."""
    n = len(choices)
    edge = [[False] * n for _ in range(n)]
    for b in range(n):
        for a in range(b):
            edge[a][b] = (choices[a] == choices[b]
                          or footprints[a].depends(footprints[b])
                          or choices[b] in deliveries[a]
                          or choices[a] in deliveries[b])
    hb = [row[:] for row in edge]
    for k in range(n):
        for a in range(k):
            if hb[a][k]:
                for b in range(k + 1, n):
                    if hb[k][b]:
                        hb[a][b] = True
    return [(a, b) for b in range(n) for a in range(b - 1, -1, -1)
            if edge[a][b] and choices[a] != choices[b]
            and not any(hb[a][k] and hb[k][b] for k in range(a + 1, b))]


def _random_trace(rng, n_cpus, n):
    choices = [rng.randrange(n_cpus) for _ in range(n)]
    footprints = [fp(rng.sample(range(4), rng.randint(0, 2)),
                     rng.sample(range(4), rng.randint(0, 1)),
                     rng.random() < 0.05)
                  for _ in range(n)]
    deliveries = [frozenset(rng.sample(range(n_cpus), 1))
                  if rng.random() < 0.1 else NOTHING for _ in range(n)]
    return choices, footprints, deliveries


def test_vector_clocks_match_the_transitive_closure():
    rng = random.Random(11)
    for _ in range(300):
        n_cpus = rng.randint(1, 4)
        choices, footprints, deliveries = _random_trace(
            rng, n_cpus, rng.randint(0, 24))
        clocks, races = vector_clocks(choices, footprints, deliveries,
                                      n_cpus)
        assert sorted(races) == sorted(
            _naive_races(choices, footprints, deliveries))
        # Reusing a prefix's clocks changes nothing, and only races
        # ending at or past lo are reported.
        lo = rng.randint(0, len(choices))
        again, tail = vector_clocks(choices, footprints, deliveries,
                                    n_cpus, lo, clocks[:lo])
        assert again == clocks
        assert tail == [(i, j) for i, j in races if j >= lo]


# ----------------------------------------------------------------------
# Class coverage: DPOR vs the sleep-set enumeration
# ----------------------------------------------------------------------


def normal_form(choices, footprints, deliveries):
    """The lexicographic normal form of a run's Mazurkiewicz class: its
    steps as (cpu, footprint, deliveries), reordered so that each next
    step is the one on the lowest CPU whose happens-before predecessors
    (the four edge kinds, closed naively here) have all been taken."""
    n = len(choices)
    preds = [{a for a in range(b)
              if choices[a] == choices[b]
              or footprints[a].depends(footprints[b])
              or choices[b] in deliveries[a]
              or choices[a] in deliveries[b]}
             for b in range(n)]
    taken = set()
    out = []
    while len(out) < n:
        step = min((k for k in range(n)
                    if k not in taken and preds[k] <= taken),
                   key=lambda k: choices[k])
        taken.add(step)
        out.append((choices[step], footprints[step], deliveries[step]))
    return tuple(out)


def _classes(monkeypatch, search, *args, **kwargs):
    """The normal forms of every judged run of ``search`` and the set of
    its outcomes."""
    keys = set()
    run_node = explore_mod.run_node

    def spy(*a, **kw):
        result = run_node(*a, **kw)
        verdict, policy, recorder = result[:3]
        if verdict is not None and recorder is not None:
            n = len(recorder.footprints)
            keys.add(normal_form(policy.choices[:n],
                                 list(recorder.footprints),
                                 list(recorder.deliveries)))
        return result

    monkeypatch.setattr(explore_mod, "run_node", spy)
    outcomes = set()
    report = search(*args, report=lambda v: outcomes.add(v.outcome),
                    **kwargs)
    monkeypatch.setattr(explore_mod, "run_node", run_node)
    assert not report.truncated and not report.failures
    return keys, outcomes


@pytest.mark.parametrize("program", LITMUS_PROGRAMS)
def test_dpor_completes_every_class_of_the_sleep_set_search(monkeypatch,
                                                             program):
    reference, expected = _classes(monkeypatch, explore_sleep_sets,
                                   program, CONFIG, max_depth=24)
    found, outcomes = _classes(monkeypatch, explore, program, CONFIG,
                               preemption_bound=None, max_depth=36)
    assert reference - found == set()
    assert outcomes == expected
