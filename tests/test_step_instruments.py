"""Instruments attached before ``run()`` still see every step.

A heap-scheduled run steps the common instruction inside the engine
loop instead of through ``Machine._step``.  Each instrument below hooks
a different seam of a step: a step subscriber, a ``_step`` shadow (the
fault injector's), and a ``cpu.execute`` shadow (the cycle profiler's,
which closes the flagship's cycle books).
"""

from repro.common.params import paper_config
from repro.faults.injector import FaultInjector, make_plan
from repro.harness.bench import run_flagship_accounting
from repro.obs.observer import Observer
from repro.workloads import Mp3dKernel
from repro.workloads.base import Run


def _mp3d_run(instrument):
    """Run a 4-CPU mp3d under the deterministic (heap) schedule with
    ``instrument`` attached; returns the machine and the instrument."""
    machine, (attached,), error = Mp3dKernel(n_threads=4).run(
        paper_config(n_cpus=4), instruments=[instrument], judge=Run)
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
    machine, counter = _mp3d_run(StepCounter)
    assert counter.steps == machine.stats.get("engine.steps") > 0


def test_step_shadow_runs_once_per_step(monkeypatch):
    calls = []
    original = FaultInjector._maybe_spurious

    def counted(self, cpu):
        calls.append(cpu.cpu_id)
        return original(self, cpu)

    monkeypatch.setattr(FaultInjector, "_maybe_spurious", counted)
    machine, _injector = _mp3d_run(
        lambda m: FaultInjector(make_plan("spurious-violation", 1), m))
    assert len(calls) == machine.stats.get("engine.steps") > 0


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
