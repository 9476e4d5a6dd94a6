"""Instruments attached before ``run()`` still see every step.

Every run steps its CPUs in the engine's run loop; a step takes the
cold fetch only while something watches or intercepts it.  Each
instrument below hooks a different seam of a step: a step subscriber,
a pre-step hook (the fault injector's ``_before_step`` entry), and a
``cpu.execute`` shadow (the cycle profiler's, which closes the cycle
books).  Each runs under the deterministic (heap) schedule, a sampled
random schedule, and a controlled schedule with the step journal on.
"""

import pytest

from repro.common.params import functional_config, paper_config
from repro.faults.injector import FaultInjector, make_plan
from repro.harness.bench import (
    FLAGSHIP_CPUS,
    FLAGSHIP_ID,
    load_golden,
    run_flagship_accounting,
)
from repro.obs.observer import Observer
from repro.obs.profiler import CycleProfiler
from repro.sim.engine import Machine
from repro.sim.schedule import ControlledPolicy, RandomPolicy
from repro.workloads import DetectionStressKernel, Mp3dKernel
from repro.workloads.base import Run


class Journal:
    """Keeps the step journal on for the whole run, as a checkpointing
    explorer does up to its last fork point."""

    def __init__(self, machine):
        self.machine = machine
        machine.enable_journal()

    def detach(self):
        self.machine.disable_journal()


#: The schedules off the heap: (policy factory, instruments attached
#: before the one under test).
SCHEDULES = {
    "random": (lambda: RandomPolicy(seed=7), ()),
    "controlled-journal": (ControlledPolicy, (Journal,)),
}


def _mp3d_run(instrument, schedule=None):
    """Run a 4-CPU mp3d with ``instrument`` attached, under the
    deterministic (heap) schedule or one of :data:`SCHEDULES`; returns
    the machine and the instrument."""
    policy, before = SCHEDULES[schedule] if schedule else (None, ())
    machine, (*_, attached), error = Mp3dKernel(n_threads=4).run(
        paper_config(n_cpus=4), policy=policy and policy(),
        instruments=[*before, instrument], judge=Run)
    assert error is None
    return machine, attached


class StepCounter(Observer):
    def __init__(self, machine):
        self.machine = machine
        self.steps = 0
        machine.observe(self)

    def on_step(self, cpu):
        self.steps += 1


def test_step_subscriber_sees_every_step():
    for schedule in (None, *SCHEDULES):
        machine, counter = _mp3d_run(StepCounter, schedule)
        assert counter.steps == machine.stats.get("engine.steps") > 0, (
            schedule)


def test_step_shadow_runs_once_per_step(monkeypatch):
    """The injector's pre-step hook runs once per step."""
    calls = []
    original = FaultInjector._maybe_spurious

    def counted(self, cpu):
        calls.append(cpu.cpu_id)
        return original(self, cpu)

    monkeypatch.setattr(FaultInjector, "_maybe_spurious", counted)
    for schedule in (None, *SCHEDULES):
        calls.clear()
        machine, _injector = _mp3d_run(
            lambda m: FaultInjector(make_plan("spurious-violation", 1), m),
            schedule)
        assert len(calls) == machine.stats.get("engine.steps") > 0, (
            schedule)


def test_execute_shadow_balances_the_books_off_the_heap():
    for schedule in SCHEDULES:
        machine, profiler = _mp3d_run(CycleProfiler, schedule)
        account = profiler.account()
        assert account.balanced, (schedule, account.problems())
        assert account.budget == 4 * machine.stats.get("cycles") > 0
        assert account.totals["committed"] > 0, schedule


@pytest.mark.parametrize("first", ["spurious-violation", "watch-drop"])
def test_injectors_leave_no_pre_step_hook_in_either_detach_order(first):
    """Two injectors on one machine each add a pre-step hook; detached
    in either order they leave none, and the machine then runs the
    flagship to its golden cycle count."""
    machine = Machine(functional_config(
        n_cpus=FLAGSHIP_CPUS, **DetectionStressKernel.config_overrides))
    injectors = {kind: FaultInjector(make_plan(kind, 1), machine)
                 for kind in ("spurious-violation", "watch-drop")}
    assert len(machine._before_step) == 2
    injectors.pop(first).detach()
    assert len(machine._before_step) == 1
    injectors.popitem()[1].detach()
    assert machine._before_step == ()
    workload = DetectionStressKernel(n_threads=FLAGSHIP_CPUS)
    workload.prepare(machine)
    machine.run()
    assert workload.checked(machine) is None
    assert machine.stats.get("cycles") == load_golden()[FLAGSHIP_ID]


#: The flagship's cycle books (16 CPUs x 7731 cycles).  Books close
#: however few ops the profiler sees (an unseen op reads as idle), so
#: the buckets are pinned too.
FLAGSHIP_BOOKS = {"committed": 18936, "wasted": 58598, "handler": 951,
                  "overhead": 14176, "idle": 31035}


def test_execute_shadow_closes_the_flagship_books():
    account, errors = run_flagship_accounting(expected_cycles=7731)
    assert errors == []
    assert dict(account.totals) == FLAGSHIP_BOOKS
    assert account.budget == 16 * 7731
