"""The one runner, :meth:`repro.workloads.base.Workload.run`.

Every run in ``src/`` — the fuzzer's cases, the explorer's fresh nodes
and replays, the bench cells, ``repro trace`` — sets its program up and
runs it here, so this is where instruments must attach and detach
exactly: whether set-up or the run raises, a judged run leaves the
machine with no observer, no subscriber, no shadowed method and every
CPU on its table executor.
"""

import pytest

from repro.check.explore import StepRecorder
from repro.check.fuzz import build_config, faulted
from repro.check.history import HistoryRecorder
from repro.check.programs import CounterProgram
from repro.common.errors import ReproError, SimulationError
from repro.obs.observer import HTM_EVENTS, MACHINE_EVENTS
from repro.obs.profiler import CycleProfiler
from repro.workloads.base import Run

#: ``delayed-violation`` shadows four machine methods.
FAULT = "delayed-violation"


class SetupRaises(CounterProgram):
    """The counter program, failing after its threads are spawned."""

    def setup(self, machine, runtime, arena):
        super().setup(machine, runtime, arena)
        raise ReproError("set-up failed")


def _instruments():
    return faulted(FAULT, 1, [
        HistoryRecorder, CycleProfiler,
        lambda machine: StepRecorder(machine, machine.policy)])


def _assert_clean(machine):
    assert machine._observers == []
    assert machine.fault_hooks is None
    for obj, events in ((machine, MACHINE_EVENTS),
                        (machine.htm, HTM_EVENTS)):
        shadows = [attr for attr in vars(obj)
                   if callable(getattr(type(obj), attr, None))]
        assert shadows == [], f"{type(obj).__name__}: {shadows}"
        assert all(getattr(obj, f"_on_{event}") == () for event in events)
    assert all(cpu.execute is cpu._table_execute for cpu in machine.cpus)


@pytest.mark.parametrize("program, max_cycles, error", [
    (SetupRaises(), 2_000_000, "set-up failed"),
    (CounterProgram(), 60, "simulation exceeded 60 cycles"),
], ids=["setup-raises", "run-raises"])
def test_a_failed_run_detaches_exactly(program, max_cycles, error):
    config = build_config("lazy-wb-assoc", program)
    machine, attached, caught = program.run(
        config, max_cycles, instruments=_instruments(), judge=Run)
    assert str(caught) == error
    assert [type(i).__name__ for i in attached] == [
        "FaultInjector", "HistoryRecorder", "CycleProfiler", "StepRecorder"]
    _assert_clean(machine)


def test_the_default_judge_raises_after_detaching():
    """Without a judge the run's error propagates, and the instruments
    are gone from the machine it ran on."""
    program = CounterProgram()
    machines = []

    def spy(machine):
        machines.append(machine)
        return CycleProfiler(machine)

    with pytest.raises(SimulationError, match="exceeded 60 cycles"):
        program.run(build_config("lazy-wb-assoc", program), 60,
                    instruments=[*_instruments(), spy])
    _assert_clean(machines[0])


def test_a_passing_run_is_verified_and_detached():
    program = CounterProgram()
    machine = program.run(build_config("lazy-wb-assoc", program),
                          instruments=_instruments())
    assert machine.memory.read(program.addr) == 18
    _assert_clean(machine)
