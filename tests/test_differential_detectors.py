"""Differential testing: naive full-scan vs reverse-index detectors.

The reverse-index conflict detectors (:mod:`repro.htm.conflict`) are an
optimization with a hard contract: *no observable difference* from the
original O(n_cpus × levels) scanning implementations, which are kept as
``NaiveLazyDetector``/``NaiveEagerDetector`` in ``tests/reference.py``
exactly for this test.  Each case here runs one adversarial check
program twice — once per detector implementation (``naive`` swaps the
reference into the machine before it runs) — and asserts that

* the violation streams are identical (victim, level mask, address, and
  source CPU, in posting order),
* the final shared-memory images are identical, and
* the cycle and step counts are identical,

across lazy and eager configurations, undo-log and write-buffer
versioning, deterministic and adversarial (PCT) schedules, and multiple
seeds.  Any divergence — even a reordering of two violation posts —
fails, because the violation order feeds victim handlers and therefore
the whole downstream schedule.
"""

import pytest

from repro.check.fuzz import CONFIGS
from repro.check.programs import PROGRAMS, make_program
from repro.common.errors import ReproError
from repro.common.params import functional_config
from repro.mem.layout import SharedArena
from repro.runtime.core import Runtime
from repro.sim.engine import Machine
from repro.sim.schedule import make_policy

from tests.reference import (
    NaiveEagerDetector,
    NaiveLazyDetector,
    install_naive_detector,
)

#: Config cells that exercise both detector families (the timing configs
#: are cycle-heavy and add no detector coverage beyond these).
CONFIG_NAMES = ("lazy-wb-assoc", "eager-wb", "eager-undo")
POLICY_NAMES = ("det", "pct")
SEEDS = (1, 2)


def run_observed(program_name, config_name, policy_name, seed, naive):
    """Run one check program; return every observable of the run."""
    program = make_program(program_name, seed=seed)
    overrides = dict(CONFIGS[config_name])
    config = functional_config(
        n_cpus=max(4, program.min_cpus()), **overrides)
    if not program.supports(config):
        return None
    machine = Machine(config, policy=make_policy(policy_name, seed=seed))
    if naive:
        install_naive_detector(machine)
    violations = []
    deliver = machine.htm.detector._sink

    def recording_sink(violation):
        violations.append((violation.victim, violation.mask,
                           violation.addr, violation.source))
        deliver(violation)

    machine.htm.attach_violation_sink(recording_sink)
    runtime = Runtime(machine)
    arena = SharedArena(machine)
    error = None
    try:
        program.setup(machine, runtime, arena)
        machine.run(max_cycles=program.max_cycles)
    except ReproError as exc:
        error = f"{type(exc).__name__}: {exc}"
    return {
        "violations": violations,
        "memory": machine.memory.snapshot(),
        "cycles": machine.stats.get("cycles"),
        "steps": machine.stats.get("engine.steps"),
        "error": error,
    }


@pytest.mark.parametrize("config_name", CONFIG_NAMES)
@pytest.mark.parametrize("program_name", sorted(PROGRAMS))
def test_naive_and_indexed_detectors_are_observably_identical(
        program_name, config_name):
    compared = 0
    for policy_name in POLICY_NAMES:
        for seed in SEEDS:
            indexed = run_observed(
                program_name, config_name, policy_name, seed, naive=False)
            if indexed is None:
                continue
            naive = run_observed(
                program_name, config_name, policy_name, seed, naive=True)
            case = f"{program_name}:{config_name}:{policy_name}:{seed}"
            assert naive["violations"] == indexed["violations"], (
                f"{case}: violation streams diverge")
            assert naive["memory"] == indexed["memory"], (
                f"{case}: final memory images diverge")
            assert naive["cycles"] == indexed["cycles"], (
                f"{case}: cycle counts diverge")
            assert naive["steps"] == indexed["steps"], (
                f"{case}: step counts diverge")
            assert naive["error"] == indexed["error"], (
                f"{case}: run outcomes diverge")
            compared += 1
    if compared == 0:
        pytest.skip(f"{program_name} does not support {config_name}")


def test_install_naive_detector_swaps_in_the_reference_classes():
    from repro.htm.conflict import EagerDetector, LazyDetector

    def detectors_for(**overrides):
        machine = Machine(functional_config(n_cpus=2, **overrides))
        indexed = machine.htm.detector
        sink = indexed._sink
        install_naive_detector(machine)
        assert machine.htm.detector._sink is sink
        return indexed, machine.htm.detector

    indexed, naive = detectors_for()
    assert type(indexed) is LazyDetector
    assert type(naive) is NaiveLazyDetector
    indexed, naive = detectors_for(detection="eager")
    assert type(indexed) is EagerDetector
    assert type(naive) is NaiveEagerDetector
