"""The exhaustive schedule-space explorer (repro.check.explore).

Covers the tentpole acceptance criteria:

* bounded-exhaustive enumeration of a 2-CPU litmus program drains its
  search and reports explored-vs-pruned counts;
* sleep-set pruning agrees with plain enumeration where the latter is
  tractable;
* a known DESIGN.md §6b schedule-dependent bug is rediscovered without
  randomness (no seeds, bound 0);
* parallel exploration is bit-for-bit identical to serial;
* counterexamples replay from their deviation encoding alone and
  shrink through the fuzzer's shared greedy loop.
"""

import pytest

from repro.check.explore import (
    ScheduleVerdict,
    deviations_to_str,
    explore,
    parse_deviations,
    replay,
)
from repro.check.fuzz import run_case, shrink
from repro.check.programs import LITMUS_PROGRAMS, PROGRAMS
from repro.sim.schedule import ControlledPolicy, SchedulePruned
from tests.reference import explore_sleep_sets

CONFIG = "lazy-wb-assoc"


class FakeCpu:
    def __init__(self, cpu_id, resume_at=0):
        self.cpu_id = cpu_id
        self.resume_at = resume_at


# ----------------------------------------------------------------------
# ControlledPolicy
# ----------------------------------------------------------------------


def test_controlled_policy_default_is_first_candidate():
    policy = ControlledPolicy()
    cpus = [FakeCpu(0, 5), FakeCpu(1, 3), FakeCpu(2, 9)]
    chosen = policy.choose(cpus)
    # Deterministic pick: smallest (resume_at, cpu_id).
    assert chosen.cpu_id == 1
    assert policy.choices == [1]
    assert policy.candidates == [(1, 0, 2)]


def test_controlled_policy_forced_choice_wins():
    policy = ControlledPolicy(forced={0: 2, 1: 0})
    cpus = [FakeCpu(0), FakeCpu(1), FakeCpu(2)]
    assert policy.choose(cpus).cpu_id == 2
    assert policy.choose(cpus).cpu_id == 0
    # Unforced step falls back to the default pick.
    assert policy.choose(cpus).cpu_id == 0
    assert policy.choices == [2, 0, 0]
    assert policy.divergences == []


def test_controlled_policy_records_divergence():
    policy = ControlledPolicy(forced={0: 7})
    cpus = [FakeCpu(0), FakeCpu(1)]
    assert policy.choose(cpus).cpu_id == 0
    assert policy.divergences == [(0, 7)]


def test_controlled_policy_sleep_skips_and_prunes():
    policy = ControlledPolicy(sleep={0}, sleep_from=0)
    cpus = [FakeCpu(0), FakeCpu(1)]
    assert policy.choose(cpus).cpu_id == 1
    policy.sleep.add(1)
    with pytest.raises(SchedulePruned) as exc:
        policy.choose(cpus)
    # The pruned step was observed but never executed.
    assert exc.value.step == 1
    assert exc.value.candidates == (0, 1)
    assert len(policy.choices) == 1
    assert len(policy.candidates) == 2


def test_controlled_policy_forced_overrides_sleep():
    policy = ControlledPolicy(forced={0: 0}, sleep={0}, sleep_from=0)
    cpus = [FakeCpu(0), FakeCpu(1)]
    assert policy.choose(cpus).cpu_id == 0


# ----------------------------------------------------------------------
# Deviation encoding
# ----------------------------------------------------------------------


def test_deviation_string_round_trip():
    assert deviations_to_str(()) == "det"
    assert parse_deviations("det") == ()
    assert parse_deviations("") == ()
    devs = ((3, 1), (7, 0))
    assert parse_deviations(deviations_to_str(devs)) == devs
    with pytest.raises(ValueError):
        parse_deviations("3-1")


# ----------------------------------------------------------------------
# Enumeration
# ----------------------------------------------------------------------


def test_litmus_programs_registered():
    for name in LITMUS_PROGRAMS:
        assert name in PROGRAMS


def test_bound_zero_is_exactly_the_det_schedule():
    report = explore("litmus-sb", CONFIG, preemption_bound=0)
    assert report.explored == 1
    assert report.pruned == 0
    assert not report.failures
    verdict = report.verdicts[0]
    assert verdict.deviations == ()
    assert verdict.name == f"litmus-sb:{CONFIG}:det"
    # The same schedule the fuzzer's det policy runs.
    fuzz = run_case("litmus-sb", CONFIG, "det", 1)
    assert not fuzz.failed


def test_exhaustive_litmus_enumeration_drains():
    """The headline acceptance test: bounded-exhaustive exploration of a
    2-CPU litmus program visits every schedule class reachable within
    the depth bound, reporting explored vs. pruned counts.  DPOR
    branches only at races, so it abandons at most a third of the runs
    the sleep-set enumeration abandons and judges no more schedules."""
    report = explore("litmus-sb", CONFIG, preemption_bound=None,
                     max_depth=24, max_schedules=5000)
    reference = explore_sleep_sets("litmus-sb", CONFIG, max_depth=24,
                                   max_schedules=5000)
    assert not report.truncated
    assert report.exhaustive
    assert report.explored > 10
    assert 3 * report.pruned <= reference.pruned
    assert report.explored <= reference.explored
    assert report.races > 0 and report.backtracks > 0
    assert not report.failures
    # Deterministic: a second run enumerates the identical sequence.
    again = explore("litmus-sb", CONFIG, preemption_bound=None,
                    max_depth=24, max_schedules=5000)
    assert [v.name for v in again.verdicts] == [
        v.name for v in report.verdicts]


def test_pruned_and_unpruned_agree_where_tractable():
    """At a small depth the full enumeration is tractable: pruning must
    not change the set of verdict outcomes, only skip equivalent
    interleavings (2^depth schedules collapse to a handful)."""
    depth = 10
    full = explore("litmus-sb", CONFIG, preemption_bound=None,
                   max_depth=depth, prune=False, max_schedules=2000)
    slim = explore("litmus-sb", CONFIG, preemption_bound=None,
                   max_depth=depth, prune=True, max_schedules=2000)
    assert not full.truncated and not slim.truncated
    assert full.explored == 2 ** depth  # two candidates at every step
    assert slim.explored + slim.pruned < full.explored
    assert not full.failures and not slim.failures


def test_every_litmus_program_explores_clean():
    for name in LITMUS_PROGRAMS:
        report = explore(name, CONFIG, preemption_bound=1)
        assert not report.truncated
        assert report.explored > 0
        assert not report.failures, report.summary()


def test_eager_config_explores_unpruned():
    report = explore("litmus-inc", "eager-undo", preemption_bound=1,
                     max_schedules=500)
    assert report.prune is False  # pruning unsound under eager: gated off
    assert report.pruned == 0
    assert not report.failures


# ----------------------------------------------------------------------
# Bug rediscovery and replay
# ----------------------------------------------------------------------


def test_rediscovers_lost_wakeup_without_randomness():
    """DESIGN.md §6b lost-wakeup: the fuzzer needs the right seed; the
    explorer finds it at bound 0 with no randomness anywhere."""
    report = explore("requeue", CONFIG, fault="drop-requeue",
                     preemption_bound=0)
    assert len(report.failures) == 1
    verdict = report.failures[0]
    assert [v.oracle for v in verdict.violations] == ["lost-wakeup"]
    assert verdict.name == f"drop-requeue:requeue:{CONFIG}:det"


def test_replay_round_trip():
    report = explore("litmus-mp", CONFIG, preemption_bound=1)
    deviating = [v for v in report.verdicts if v.deviations]
    assert deviating
    for verdict in deviating[:3]:
        again = replay("litmus-mp", CONFIG, verdict.deviations)
        assert again.signature == verdict.signature
        assert again.n_steps == verdict.n_steps
        assert again.failed == verdict.failed
        assert again.divergences == ()


def test_explorer_counterexample_shrinks_through_shared_loop():
    """Explorer counterexamples route through the same ddmin loop
    (shrink) as the fuzzer's failures."""
    report = explore("requeue", CONFIG, fault="drop-requeue",
                     preemption_bound=1, max_schedules=30)
    deviating = [v for v in report.failures if v.deviations]
    assert deviating, "bound-1 exploration found no deviating failure"
    failure = deviating[0]
    shrunk, result = shrink(failure)
    # The det schedule already fails under this fault, so the ddmin
    # loop must drop every deviation — pinning the fully-shrunk trace.
    assert shrunk == []
    assert result.failed
    assert replay("requeue", CONFIG, shrunk, fault="drop-requeue").failed


def test_node_failure_has_no_children(monkeypatch):
    """A crashed node's subtree is lost: none of the nodes below it in
    the clean search is run, every other node is, and the search goes
    on.  A node's descendants are the nodes whose prefixes extend its
    own, since a child's prefix is its parent's path up to the fork plus
    the forced CPU."""
    import repro.check.explore as explore_mod

    run_node = explore_mod.run_node
    ran = []

    def spy(*args, **kwargs):
        prefix = kwargs["prefix"]
        ran.append(prefix)
        if prefix == crash:
            raise RuntimeError("boom")
        return run_node(*args, **kwargs)

    def below(node, nodes):
        return {other for other in nodes
                if len(other) > len(node) and other[:len(node)] == node}

    monkeypatch.setattr(explore_mod, "run_node", spy)
    crash = None
    clean = explore("litmus-sb", CONFIG, preemption_bound=2)
    clean_ran = list(ran)
    crash = next(prefix for prefix in clean_ran
                 if prefix and below(prefix, clean_ran))
    lost = below(crash, clean_ran)
    ran.clear()
    report = explore("litmus-sb", CONFIG, preemption_bound=2)
    assert crash in ran and not lost & set(ran)
    assert sorted(ran) == sorted(set(clean_ran) - lost)
    (failure,) = report.failures
    assert failure.violations[0].oracle == "run-failure"
    assert failure.deviations == ()
    assert 0 < report.explored < clean.explored


def test_in_process_node_crash_is_a_failing_verdict(monkeypatch):
    """A node that raises in the in-process path is classified like a
    crashed worker's: a run-failure verdict naming the node, and the
    campaign goes on."""
    import repro.check.explore as explore_mod

    run_node = explore_mod.run_node

    def crash_on_one(*args, **kwargs):
        if kwargs["prefix"] == (1,):
            raise RuntimeError("boom")
        return run_node(*args, **kwargs)

    monkeypatch.setattr(explore_mod, "run_node", crash_on_one)
    report = explore("litmus-sb", CONFIG, preemption_bound=1)
    (failure,) = report.failures
    assert failure.violations[0].oracle == "run-failure"
    assert "node prefix=[1]: RuntimeError: boom" in str(failure)
    assert report.explored > 1


def test_dpor_node_crash_is_a_failing_verdict(monkeypatch):
    """A DPOR run that raises is classified like one in a bounded
    search: a run-failure verdict naming its prefix, and the drain goes
    on with the states it already has."""
    import repro.check.explore as explore_mod

    run_node = explore_mod.run_node
    crashed = []

    def crash_once(*args, **kwargs):
        if not crashed and kwargs["prefix"]:
            crashed.append(kwargs["prefix"])
            raise RuntimeError("boom")
        return run_node(*args, **kwargs)

    monkeypatch.setattr(explore_mod, "run_node", crash_once)
    report = explore("litmus-sb", CONFIG, preemption_bound=None,
                     max_depth=24)
    (failure,) = report.failures
    assert failure.violations[0].oracle == "run-failure"
    assert (f"node prefix={list(crashed[0])}: RuntimeError: boom"
            in str(failure))
    assert report.explored > 1 and not report.truncated


def test_dpor_drain_respects_the_schedule_cap():
    report = explore("litmus-sb", CONFIG, preemption_bound=None,
                     max_depth=24, max_schedules=5)
    assert report.truncated and not report.exhaustive
    assert report.explored + report.pruned == 5
    assert sum(report.generations) == 5


# ----------------------------------------------------------------------
# Parallel == serial
# ----------------------------------------------------------------------


def _sharded(specs, jobs):
    from repro.check.explore import search_failure
    from repro.harness.parallel import run_campaign
    return run_campaign(specs, jobs=jobs, failure_result=search_failure)


def test_parallel_exploration_matches_serial():
    """``explore --jobs`` shards whole (program, config) searches: each
    pair's report from a worker equals the serial search's."""
    from repro.check.explore import search_spec
    kwargs = dict(preemption_bound=2, max_depth=20, max_schedules=2000)
    pairs = [(program, config) for program in ("litmus-inc", "litmus-sb")
             for config in (CONFIG, "eager-wb")]
    serial = [explore(program, config, **kwargs) for program, config
              in pairs]
    parallel = _sharded([search_spec(program, config, **kwargs)
                         for program, config in pairs], jobs=3)
    assert not any(report.truncated for report in serial)
    for one, other in zip(serial, parallel, strict=True):
        assert (one.program, one.config, one.explored, one.pruned,
                one.generations) == (other.program, other.config,
                                     other.explored, other.pruned,
                                     other.generations)
        assert [(v.name, v.failed, v.signature) for v in one.verdicts] \
            == [(v.name, v.failed, v.signature) for v in other.verdicts]


def test_crashed_search_is_a_classified_report(monkeypatch, capsys):
    """A worker that dies on one (program, config) pair becomes that
    pair's report: one run-failure verdict naming the pair and a replay
    line for its search; the other pair's output is unchanged and the
    exit status is 1."""
    import os

    import repro.check.explore as explore_mod
    from repro.cli import main

    real_explore = explore_mod.explore

    def sabotaged(program, config, **kwargs):
        if program == "litmus-sb":
            os._exit(40)
        return real_explore(program, config, **kwargs)

    argv = ["explore", "--programs", "litmus-sb,litmus-mp",
            "--preemption-bound", "1", "--jobs", "2"]
    assert main(argv[:-2]) == 0
    clean = capsys.readouterr().out
    # fork inherits the monkeypatched module, so the worker dies too
    monkeypatch.setattr(explore_mod, "explore", sabotaged)
    assert main(argv) == 1
    out = capsys.readouterr().out
    assert ("explore: litmus-sb:lazy-wb-assoc: search failed "
            "(worker crashed (exit code 40))") in out
    assert ("[run-failure] search litmus-sb:lazy-wb-assoc: "
            "worker crashed (exit code 40)") in out
    assert ("python -m repro explore --programs litmus-sb "
            "--configs lazy-wb-assoc --preemption-bound 1") in out
    (mp_line,) = [line for line in clean.splitlines()
                  if line.startswith("explore: litmus-mp:")]
    assert mp_line in out.splitlines()


# ----------------------------------------------------------------------
# Differential: exploration finds what the det fuzz matrix finds
# ----------------------------------------------------------------------

#: The fast coordinates of the oracle self-test table
#: (tests/test_fault_oracle_selftests.py): broken fault variants whose
#: det-schedule failure the explorer must reproduce at bound 0 —
#: deterministically, without any schedule randomness.
DIFFERENTIAL = [
    ("spurious-violation+broken", "counter", 0, None),
    ("delayed-violation+broken", "counter", 0, None),
    ("token-loss+broken", "counter", 0, 60_000),
    ("handler-reentry+broken", "requeue", 0, None),
    ("watch-drop+broken", "counter", 0, None),
]


@pytest.mark.parametrize("fault,program,seed,max_cycles", DIFFERENTIAL,
                         ids=[c[0] for c in DIFFERENTIAL])
def test_explore_finds_every_det_fuzz_violation(fault, program, seed,
                                                max_cycles):
    fuzz = run_case(program, CONFIG, "det", seed, fault=fault,
                    max_cycles=max_cycles)
    fuzz_kinds = {v.oracle for v in fuzz.violations}
    assert fuzz_kinds, "self-test coordinate no longer fails under fuzz"
    report = explore(program, CONFIG, fault=fault, seed=seed,
                     preemption_bound=0, max_cycles=max_cycles)
    explore_kinds = {v.oracle
                     for verdict in report.failures
                     for v in verdict.violations}
    assert fuzz_kinds <= explore_kinds, (
        f"explorer missed {fuzz_kinds - explore_kinds}")


def test_verdict_str_formats():
    verdict = ScheduleVerdict(program="litmus-sb", config=CONFIG,
                              fault=None, seed=1, schedule=((3, 1),))
    assert "3@1" in verdict.name
    assert "ok" in str(verdict)


def _pending_reference(choices, footprints, deliveries, cpu_ids):
    """The full backward scan over every step boundary (the explorer
    reads only ``[lo, n)`` of it)."""
    n = len(choices)
    pending = [None] * n
    nxt = {cpu: None for cpu in cpu_ids}
    for i in range(n - 1, -1, -1):
        cur = dict(nxt)
        for cpu in deliveries[i]:
            if cpu != choices[i] and cpu in cur:
                cur[cpu] = None
        cur[choices[i]] = footprints[i]
        pending[i] = cur
        nxt = cur
    return pending


def test_bounded_pending_footprints_equal_the_full_scan():
    """``pending_footprints`` scans back only to ``lo``; on ``[lo, n)``
    it must equal the full scan, for random traces."""
    import random

    from repro.check.por import Footprint, pending_footprints

    rng = random.Random(7)
    for _ in range(300):
        n_cpus = rng.randint(1, 4)
        n = rng.randint(0, 40)
        cpus = range(n_cpus)
        choices = [rng.randrange(n_cpus) for _ in range(n)]
        footprints = [
            Footprint(frozenset(rng.sample(range(8), rng.randint(0, 2))),
                      frozenset(rng.sample(range(8), rng.randint(0, 2))),
                      rng.random() < 0.1)
            for _ in range(n)]
        deliveries = [frozenset(rng.sample(range(n_cpus + 1),
                                           rng.randint(0, 2)))
                      for _ in range(n)]
        full = _pending_reference(choices, footprints, deliveries, cpus)
        lo = rng.randint(0, n)
        assert pending_footprints(choices, footprints, deliveries, cpus,
                                  lo) == full[lo:]
