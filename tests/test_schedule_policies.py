"""Schedule policies: determinism, reproducibility, exploration.

The contract of :mod:`repro.sim.schedule`:

* The default (:class:`DeterministicPolicy`) is bit-for-bit the engine's
  historical tie-break, so every golden number is unchanged.
* Randomized policies are pure functions of their seed: same seed, same
  schedule, same transactional history.
* Different seeds genuinely explore: distinct commit orders appear.
* The bounded window keeps every CPU schedulable (no starvation).
"""

import pytest

from repro.check.history import HistoryRecorder
from repro.check.programs import CounterProgram
from repro.common.params import functional_config, paper_config
from repro.harness.bench import matrix_cells
from repro.mem.layout import SharedArena
from repro.runtime.core import Runtime
from repro.sim.engine import Machine
from repro.sim.schedule import (
    ControlledPolicy,
    DeterministicPolicy,
    PriorityPolicy,
    RandomPolicy,
    make_policy,
    schedule_deviations,
    window_candidates,
)
from repro.workloads import (
    CondSyncWorkload,
    DetectionStressKernel,
    IoLogWorkload,
    JbbWorkload,
    Mp3dKernel,
)
from tests.test_step_instruments import Journal


class FakeCpu:
    def __init__(self, cpu_id, resume_at):
        self.cpu_id = cpu_id
        self.resume_at = resume_at


def _counter_history(policy, seed=3):
    """Run a 2-CPU counter program under ``policy``; return its history."""
    program = CounterProgram(n_threads=2, seed=seed, increments=4)
    machine = Machine(functional_config(n_cpus=2), policy=policy)
    runtime = Runtime(machine)
    arena = SharedArena(machine)
    with HistoryRecorder(machine) as recorder:
        program.setup(machine, runtime, arena)
        machine.run(max_cycles=2_000_000)
    program.verify(machine)
    return recorder.history


# ---------------------------------------------------------------------------
# Deterministic default
# ---------------------------------------------------------------------------

def test_default_policy_is_deterministic():
    machine = Machine(functional_config())
    assert isinstance(machine.policy, DeterministicPolicy)


def test_explicit_deterministic_matches_default_bit_for_bit():
    """Passing DeterministicPolicy() must not perturb a single cycle of
    the golden-number runs (the refactor is pure factoring)."""
    base = Mp3dKernel(n_threads=4).run(paper_config(n_cpus=4))
    explicit = Mp3dKernel(n_threads=4).run(
        paper_config(n_cpus=4), policy=DeterministicPolicy())
    assert base.stats.get("cycles") == explicit.stats.get("cycles")
    assert base.results() == explicit.results()


def test_deterministic_choice_is_earliest_then_lowest_id():
    policy = DeterministicPolicy()
    cpus = [FakeCpu(2, 10), FakeCpu(0, 20), FakeCpu(1, 10)]
    assert policy.choose(cpus).cpu_id == 1


class ScanningDeterministicPolicy(DeterministicPolicy):
    """The deterministic order, served by the scan path."""

    uses_ready_heap = False


def _loop_cases():
    """The runs both loops must agree on: every bench matrix cell, the
    reduced detstress flagship, and the paper workload's five cases."""
    yield from ((workload(), config())
                for _cell, workload, config in matrix_cells())
    yield (DetectionStressKernel(n_threads=8, seed=1, scale=0.25),
           functional_config(n_cpus=8,
                             **DetectionStressKernel.config_overrides))
    yield JbbWorkload(n_threads=8), paper_config(n_cpus=8)
    yield JbbWorkload(n_threads=8), paper_config(n_cpus=8, flatten=True)
    yield JbbWorkload(n_threads=8, variant="open"), paper_config(n_cpus=8)
    yield IoLogWorkload(n_threads=8), paper_config(n_cpus=8)
    yield CondSyncWorkload(n_pairs=3), paper_config(n_cpus=7)


def _fingerprint(machine):
    return (machine.stats.as_dict(), dict(machine.memory._words),
            machine.results())


def test_heap_and_scan_schedules_are_bit_for_bit_identical():
    """The engine serves DeterministicPolicy from its (resume_at, cpu_id)
    ready heap; ``choose`` remains the executable specification.  Forcing
    the scan path (``uses_ready_heap = False``) must reproduce the exact
    same run: every stat, every memory word, every result.  So must a
    heap run with the step journal on, whose every step goes through the
    cold ``Machine._fetch`` instead of the run loop's own send."""
    for (heap_run, config), (scan_run, _), (cold_run, _) in zip(
            _loop_cases(), _loop_cases(), _loop_cases()):
        heap = heap_run.run(config)
        scan = scan_run.run(config, policy=ScanningDeterministicPolicy())
        cold = cold_run.run(config, instruments=[Journal])
        assert _fingerprint(heap) == _fingerprint(scan), heap_run.name
        assert _fingerprint(heap) == _fingerprint(cold), heap_run.name


# ---------------------------------------------------------------------------
# The bounded window
# ---------------------------------------------------------------------------

def test_window_candidates_exclude_far_future_cpus():
    cpus = [FakeCpu(0, 0), FakeCpu(1, 100), FakeCpu(2, 400)]
    assert [c.cpu_id for c in window_candidates(cpus, 250)] == [0, 1]


def test_window_candidates_always_nonempty():
    cpus = [FakeCpu(0, 5_000)]
    assert [c.cpu_id for c in window_candidates(cpus, 250)] == [0]


def test_controlled_policy_candidates_match_window_candidates():
    """ControlledPolicy orders its candidates without calling
    window_candidates; for any runnable list (any order, ties included)
    it must record exactly window_candidates' ids and pick the first."""
    import random

    rng = random.Random(5)
    for _ in range(500):
        cpus = [FakeCpu(cpu_id, rng.choice((0, 10, 249, 250, 251, 600)))
                for cpu_id in rng.sample(range(6), rng.randint(1, 5))]
        policy = ControlledPolicy(window=250)
        chosen = policy.choose(cpus)
        expected = [cpu.cpu_id for cpu in window_candidates(cpus, 250)]
        assert list(policy.candidates[-1]) == expected
        assert chosen.cpu_id == expected[0] and chosen in cpus


def test_random_policy_only_picks_within_window():
    policy = RandomPolicy(seed=0, window=250)
    cpus = [FakeCpu(0, 0), FakeCpu(1, 1_000)]
    for _ in range(50):
        assert policy.choose(cpus).cpu_id == 0


# ---------------------------------------------------------------------------
# Reproducibility and exploration
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("factory", [
    lambda seed: RandomPolicy(seed=seed),
    lambda seed: PriorityPolicy(seed=seed),
], ids=["random", "pct"])
def test_same_seed_reproduces_the_history(factory):
    first = _counter_history(factory(7)).signature()
    second = _counter_history(factory(7)).signature()
    assert first == second


def test_different_seeds_explore_distinct_commit_orders():
    orders = set()
    for seed in range(10):
        history = _counter_history(RandomPolicy(seed=seed))
        orders.add(tuple(record.cpu for record in history.committed))
    assert len(orders) >= 2, (
        "ten random seeds produced a single commit order; the policy is "
        "not exploring")


def test_every_policy_preserves_the_counter_invariant():
    for policy in (DeterministicPolicy(), RandomPolicy(seed=5),
                   PriorityPolicy(seed=5)):
        history = _counter_history(policy)   # verify() runs inside
        assert len(history) == 2 * 4


def test_pct_replays_from_its_recorded_schedule():
    original = PriorityPolicy(seed=11, depth=3)
    first = _counter_history(original).signature()
    deviations = schedule_deviations(original.schedule)
    assert deviations
    replay = ControlledPolicy(forced=dict(deviations))
    assert _counter_history(replay).signature() == first
    assert replay.divergences == []


def test_recorded_schedule_marks_each_departure_from_the_first_candidate():
    cpus = [FakeCpu(0, 0), FakeCpu(1, 0), FakeCpu(2, 400)]
    policy = RandomPolicy(seed=3)
    picks = [policy.choose(cpus).cpu_id for _ in range(20)]
    assert set(picks) == {0, 1}
    assert schedule_deviations(policy.schedule) == tuple(
        (step, cpu) for step, cpu in enumerate(picks) if cpu != 0)


def test_pct_change_points_demote_the_running_cpu():
    policy = PriorityPolicy(seed=2, depth=1, horizon=2)
    assert policy.change_points == [1]
    cpus = [FakeCpu(0, 0), FakeCpu(1, 0)]
    victim = policy.choose(cpus)
    # Without the change point the static priorities keep the victim.
    static = PriorityPolicy(seed=2, depth=0)
    assert [static.choose(cpus).cpu_id for _ in range(2)] == [
        victim.cpu_id] * 2
    # The demoted CPU now ranks below the other while both are in-window.
    assert policy.choose(cpus).cpu_id != victim.cpu_id


def test_make_policy_names():
    assert isinstance(make_policy("det"), DeterministicPolicy)
    assert isinstance(make_policy("random", seed=4), RandomPolicy)
    assert isinstance(make_policy("pct", seed=4), PriorityPolicy)
    with pytest.raises(ValueError):
        make_policy("fifo")
