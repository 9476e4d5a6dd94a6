"""The chaos matrix: every recoverable fault kind x every adversarial
program x lazy/eager detection must come out *clean* — the runtime's
recovery machinery (violation handlers, compensation, the §6b.2
re-queue, the retry-scaled loser pause) absorbs the injected noise with
zero oracle violations.

Three further guarantees, per the fault-injection design (docs/faults.md):

* determinism — a chaos case is a pure function of its
  ``fault:program:config:det:seed`` name: identical seeds give
  bit-identical commit streams and injection streams;
* reachability — every kind actually fires somewhere in the matrix
  (an injection count of zero would make the clean sweep vacuous);
* zero overhead when detached — attaching and detaching a
  :class:`~repro.faults.FaultInjector` leaves the machine's seams
  exactly as they were: the flagship bench still pins its golden cycle
  count.
"""

import pytest

from repro.check.explore import replay
from repro.check.fuzz import CHAOS_FAULTS, injection_totals, run_case
from repro.check.programs import PROGRAMS
from repro.faults import FaultInjector, make_plan

MATRIX_CONFIGS = ("lazy-wb-assoc", "eager-wb")


def _matrix(seed):
    results = []
    for fault in CHAOS_FAULTS:
        for program in sorted(PROGRAMS):
            for config in MATRIX_CONFIGS:
                results.append(run_case(program, config, "det", seed,
                                        fault=fault))
    return results


def test_chaos_matrix_is_clean():
    results = _matrix(seed=1)
    failures = [str(r) for r in results
                if not r.skipped and (r.violations or r.error)]
    assert not failures, "\n".join(failures)


def test_every_fault_kind_fires_in_the_matrix():
    totals = injection_totals(_matrix(seed=1))
    dead = [fault for fault in CHAOS_FAULTS if not totals.get(fault)]
    assert not dead, f"fault kinds never injected: {dead}"


@pytest.mark.parametrize("fault", CHAOS_FAULTS)
def test_identical_seeds_give_identical_streams(fault):
    first = run_case("iochaos", "eager-wb", "det", 5, fault=fault)
    second = run_case("iochaos", "eager-wb", "det", 5, fault=fault)
    assert first.n_committed == second.n_committed
    assert first.signature == second.signature
    assert first.n_injections == second.n_injections
    assert first.fired == second.fired
    assert [str(v) for v in first.violations] == [
        str(v) for v in second.violations]


def test_chaos_case_replays_from_its_triple():
    """A chaos case reruns from its name, and its schedule replays
    through the explorer to the same verdict."""
    result = run_case("counter", "lazy-wb-assoc", "det", 2,
                      fault="spurious-violation")
    assert result.name == "spurious-violation:counter:lazy-wb-assoc:det:2"
    fault, program, config, policy, seed = result.name.split(":")
    rerun = run_case(program, config, policy, int(seed), fault=fault)
    assert rerun.signature == result.signature
    assert rerun.fired == result.fired
    verdict = replay(program, config, result.deviations, fault=fault,
                     seed=int(seed))
    assert verdict.n_committed == result.n_committed
    assert verdict.violations == result.violations
    assert verdict.divergences == ()


def test_detached_injector_restores_golden_flagship_cycles():
    from repro.harness.bench import (
        FLAGSHIP_CPUS,
        FLAGSHIP_ID,
        _flagship_config,
        load_golden,
    )
    from repro.mem.layout import SharedArena
    from repro.runtime.core import Runtime
    from repro.sim.engine import Machine
    from repro.workloads import DetectionStressKernel

    golden = load_golden()[FLAGSHIP_ID]
    machine = Machine(_flagship_config())
    injector = FaultInjector(make_plan("spurious-violation", seed=7),
                             machine)
    injector.detach()
    runtime = Runtime(machine)
    arena = SharedArena(machine)
    workload = DetectionStressKernel(n_threads=FLAGSHIP_CPUS)
    workload.setup(machine, runtime, arena)
    machine.run()
    workload.verify(machine)
    assert machine.stats.get("cycles") == golden
