"""Exact gate on the simulator's per-step host work: Python calls per
engine step.

Wall-clock gates on a shared host are noisy; the number of Python
function calls the hot path makes is exact.  Each case below counts the
``"call"`` events ``sys.setprofile`` reports while ``Machine.run``
executes (setup excluded), for code under ``src/repro`` only.  A
generator resume is a call event, so the count includes every frame a
step resumes.  List, dict and set comprehensions are left out: Python
3.12 inlines them (PEP 709), earlier versions give each its own frame.

The counts are pinned exactly, and include each machine's cold op and
outcome interning (no warm-up run).  A change that adds a call to the
per-step path moves them; update the pins only together with the
measured before/after numbers in CHANGES.md.  The counts before the
engine call stack (``yield from`` chains through every ``atomic``, one
executor call per op, and per-access rw-set and nesting calls) were:
detstress 145,524 (27.49 per step), matrix 266,874 (17.35) and iolog
163,624 (17.93).
"""

import os
import sys

import pytest

import repro
from repro.common.params import functional_config, paper_config
from repro.harness.bench import matrix_cells
from repro.mem.layout import SharedArena
from repro.runtime.core import Runtime
from repro.sim.engine import Machine
from repro.workloads import DetectionStressKernel, IoLogWorkload

SRC = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
INLINED = {"<listcomp>", "<dictcomp>", "<setcomp>"}


def _detstress():
    """The flagship kernel cut to 8 CPUs and one round per thread:
    eight nesting levels, store bursts and accumulator conflicts."""
    return (DetectionStressKernel(n_threads=8, seed=1, scale=0.25),
            functional_config(n_cpus=8,
                              **DetectionStressKernel.config_overrides))


def _matrix():
    """The first bench matrix cell (mp3d, lazy, 2 CPUs)."""
    _cell_id, workload, config = next(iter(matrix_cells()))
    return workload(), config()


def _iolog():
    """The paper workload's transactional-I/O case."""
    return IoLogWorkload(n_threads=8, seed=1), paper_config(n_cpus=8)


def _built(build):
    workload, config = build()
    machine = Machine(config)
    workload.setup(machine, Runtime(machine), SharedArena(machine))
    return workload, machine


def count_calls(build):
    """(Python calls under ``src/repro``, engine steps) of one run.

    Each machine interns its own ops and outcomes
    (:class:`repro.isa.context.OpCache`), so the count does not depend
    on what ran before it in the process."""
    workload, machine = _built(build)
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            code = frame.f_code
            if (code.co_filename.startswith(SRC)
                    and code.co_name not in INLINED):
                calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        machine.run()
    finally:
        sys.setprofile(previous)
    workload.verify(machine)
    return calls, machine.stats.get("engine.steps")


#: The pins, each measured first in a fresh process and after the other
#: cases (the same count either way).  Before the lean engine step and
#: the direct-yield kernels they were 55,598, 190,723 and 124,460.
PINNED = {_detstress: (45876, 5294), _matrix: (119414, 15380),
          _iolog: (95224, 9126)}


@pytest.mark.parametrize("build", PINNED,
                         ids=["detstress", "matrix", "iolog"])
def test_calls_per_step_are_pinned(build):
    assert count_calls(build) == PINNED[build]


def test_counts_do_not_depend_on_earlier_runs():
    """Whatever ran before in the process, a case's count is its pin:
    each machine interns its own ops, so none starts warm."""
    for build in (_iolog, _matrix, _detstress, _iolog):
        assert count_calls(build) == PINNED[build]
