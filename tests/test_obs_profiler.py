"""Cycle-accounting profiler: conservation, classification, exactness.

The profiler's one hard invariant — every simulated cycle lands in
exactly one of committed / wasted / handler / overhead / idle, and the
buckets sum to ``cycles × n_cpus`` — is checked here on clean runs,
contended runs, and the flagship bench cell.  The flagship also pins the
zero-perturbation guarantee (a profiled run produces the *golden* cycle
count bit-for-bit) and a golden trace digest pins the tracer+profiler
stack's determinism end to end.
"""

import hashlib
import random

import pytest

from repro.check.explore import StepRecorder
from repro.check.fuzz import build_config
from repro.check.history import HistoryRecorder
from repro.check.programs import make_program
from repro.common.params import functional_config, paper_config
from repro.faults import FaultInjector, make_plan
from repro.harness.txstats import TxStatsCollector
from repro.mem.layout import SharedArena
from repro.obs.observer import HTM_EVENTS, MACHINE_EVENTS
from repro.obs.profiler import BUCKETS, CycleProfiler
from repro.obs.sinks import RingSink
from repro.runtime.core import Runtime
from repro.sim.engine import Machine
from repro.sim.schedule import make_policy
from repro.sim.trace import Tracer
from repro.workloads import DetectionStressKernel, SwimKernel

#: sha256 over ``str(event)`` lines of the full detstress-x4 trace under
#: the deterministic policy — pins the whole tracer+engine event stream.
GOLDEN_TRACE_SHA256 = (
    "a3fea70598b57a75a47e793c09972c97ae1ca9835694127adce4769a3c2f5579")
GOLDEN_TRACE_EVENTS = 276
GOLDEN_TRACE_CYCLES = 1701


def _profiled_program(program_name, config_name, seed=1):
    program = make_program(program_name, seed=seed)
    config = build_config(config_name, program)
    machine = Machine(config, policy=make_policy("det", seed=seed))
    profiler = CycleProfiler(machine)
    runtime = Runtime(machine)
    arena = SharedArena(machine)
    program.setup(machine, runtime, arena)
    machine.run(max_cycles=program.max_cycles)
    program.verify(machine)
    profiler.detach()
    return machine, profiler.account()


class TestConservation:
    def test_uncontended_workload_balances_via_instruments_hook(self):
        profilers = []

        def attach(machine):
            profiler = CycleProfiler(machine)
            profilers.append(profiler)
            return profiler

        workload = SwimKernel(n_threads=2, scale=0.25)
        machine = workload.run(paper_config(n_cpus=2),
                               instruments=[attach])
        # Workload.run detached the instrument before returning.
        assert all(cpu.execute == cpu._execute_step for cpu in machine.cpus)
        account = profilers[0].account()
        assert account.balanced, account.problems()
        assert account.totals["wasted"] == 0
        assert account.totals["committed"] > 0

    @pytest.mark.parametrize("config", ["lazy-wb-assoc", "eager-wb",
                                        "eager-undo", "lazy-timing-msi"])
    def test_contended_program_balances(self, config):
        machine, account = _profiled_program("counter", config)
        assert account.balanced, account.problems()
        assert account.budget == machine.stats.get("cycles") * len(
            machine.cpus)

    def test_contention_shows_up_as_wasted_work(self):
        _, account = _profiled_program("counter", "eager-wb")
        assert account.totals["wasted"] > 0
        assert account.totals["handler"] > 0
        assert account.totals["overhead"] > 0

    def test_per_cpu_books_sum_to_machine_cycles(self):
        machine, account = _profiled_program("counter", "lazy-wb-assoc")
        for books in account.per_cpu:
            assert sum(books.values()) == account.cycles
            assert all(books[bucket] >= 0 for bucket in BUCKETS)

    def test_deadlocked_run_still_balances(self):
        # token-loss+broken livelocks past its cycle budget; the
        # overshoot clamp and the end-of-run speculative fold must
        # still balance the books.
        from repro.check.fuzz import run_case

        result = run_case("counter", "lazy-wb-assoc", "det", 0,
                          fault="token-loss+broken", max_cycles=60_000)
        assert result.failed  # the broken fault is caught...
        assert not any(v.oracle == "cycle-conservation"
                       for v in result.violations), str(result)


class TestAccountShape:
    def test_as_dict_round_trips_totals(self):
        _, account = _profiled_program("counter", "lazy-wb-assoc")
        data = account.as_dict()
        assert data["balanced"] is True
        assert data["totals"] == account.totals
        assert sum(data["totals"].values()) == data["cycles"] * data["n_cpus"]

    def test_share_sums_to_one(self):
        _, account = _profiled_program("counter", "lazy-wb-assoc")
        assert sum(account.share(bucket) for bucket in BUCKETS) == (
            pytest.approx(1.0))

    def test_format_cycle_accounting_renders(self):
        from repro.harness.report import format_cycle_accounting

        _, account = _profiled_program("counter", "lazy-wb-assoc")
        text = format_cycle_accounting(account, title="test accounting")
        assert "test accounting" in text
        for bucket in BUCKETS:
            assert bucket in text
        assert "balanced" in text


class TestExactDetach:
    def test_detach_restores_class_execute_path(self):
        machine = Machine(functional_config(n_cpus=2))
        before = [cpu.execute for cpu in machine.cpus]
        profiler = CycleProfiler(machine)
        assert all(cpu.execute is not orig
                   for cpu, orig in zip(machine.cpus, before))
        profiler.detach()
        # Zero-overhead contract: no wrapper shadow left behind — the
        # slot holds the original dispatch-table executor again.
        assert all(cpu.execute is orig
                   for cpu, orig in zip(machine.cpus, before))

    def test_detach_restores_htm_seams(self):
        machine = Machine(functional_config(n_cpus=2))
        htm = machine.htm
        events = ("begin", "commit", "rollback_to", "abandon_all")
        profiler = CycleProfiler(machine)
        # Subscribed to the four HTM events, with no method shadowed.
        for event in events:
            assert getattr(htm, f"_on_{event}") == (
                getattr(profiler, f"on_{event}"),)
            assert event not in vars(htm)
        profiler.detach()
        assert all(getattr(htm, f"_on_{event}") == () for event in events)

    @pytest.mark.parametrize("first_out", ["profiler", "tracer",
                                           "collector"])
    def test_stacked_instruments_detach_in_any_order(self, first_out):
        """Tracer, TxStatsCollector and CycleProfiler all wrap
        ``htm.commit``; whichever detaches first must splice out exactly,
        leaving the others live and the seam clean at the end."""
        program = make_program("counter", seed=1)
        config = build_config("lazy-wb-assoc", program)
        machine = Machine(config, policy=make_policy("det", seed=1))
        original_commit = machine.htm.commit
        profiler = CycleProfiler(machine)
        collector = TxStatsCollector(machine)
        tracer = Tracer(machine, sink=RingSink(100_000))
        runtime = Runtime(machine)
        arena = SharedArena(machine)
        program.setup(machine, runtime, arena)
        machine.run(max_cycles=program.max_cycles)
        program.verify(machine)

        order = {"profiler": profiler, "tracer": tracer,
                 "collector": collector}
        order[first_out].detach()
        for name, instrument in order.items():
            if name != first_out:
                instrument.detach()

        assert machine.htm.commit == original_commit
        # Every instrument saw the full run regardless of detach order.
        assert tracer.of_kind("commit")
        assert collector.records
        assert profiler.account().balanced, profiler.account().problems()

    def test_detach_is_idempotent(self):
        machine = Machine(functional_config(n_cpus=2))
        profiler = CycleProfiler(machine)
        profiler.detach()
        profiler.detach()
        assert all(cpu.execute == cpu._execute_step for cpu in machine.cpus)


#: The stacked-detach case: a fault injector plus every observer kind on
#: one machine.  ``delayed-violation`` shadows four machine methods.
STACK_CASE = ("counter", "lazy-wb-assoc", 1, "delayed-violation")

#: How to attach, and what to compare, for each observer kind.
_OBSERVERS = {
    "tracer": (lambda m: Tracer(m, sink=RingSink(100_000)),
               lambda o: [str(e) for e in o.events]),
    "txstats": (TxStatsCollector, lambda o: list(o.records)),
    "profiler": (CycleProfiler, lambda o: o.account().as_dict()),
    "history": (HistoryRecorder, lambda o: o.history.signature()),
    "steps": (lambda m: StepRecorder(m, m.policy),
              lambda o: (o.footprints, o.deliveries)),
}


def _detach(machine, name, observer):
    if name == "steps":
        machine.unobserve(observer)
    else:
        observer.detach()


def _stacked_run(attach, detach_before=()):
    """Run :data:`STACK_CASE` with the injector plus the observers in
    ``attach`` (attach order); ``detach_before`` are detached, in order,
    before the run.  Returns ``(machine, injector, observers)``."""
    program_name, config_name, seed, fault = STACK_CASE
    program = make_program(program_name, seed=seed)
    config = build_config(config_name, program)
    machine = Machine(config, policy=make_policy("det", seed=seed))
    injector = FaultInjector(make_plan(fault, seed), machine)
    observers = {}
    for name in attach:
        observers[name] = _OBSERVERS[name][0](machine)
        if name == "steps":
            machine.observe(observers[name])
    for name in detach_before:
        _detach(machine, name, observers.pop(name))
    runtime = Runtime(machine)
    arena = SharedArena(machine)
    program.setup(machine, runtime, arena)
    machine.run(max_cycles=program.max_cycles)
    program.verify(machine)
    return machine, injector, observers


def _stack_orders():
    """A fixed sample of (attach order, detached-before-run, detach
    order after the run) triples, led by the two historical defects."""
    names = list(_OBSERVERS)
    cases = [
        # A recorder detached under a later tracer cut the tracer out.
        (["history", "tracer", "txstats", "profiler", "steps"],
         ["history"], ["tracer", "injector", "txstats", "profiler",
                       "steps"]),
        # A tracer detached under a later recorder left shadows behind.
        (["tracer", "history", "steps", "profiler", "txstats"], [],
         ["tracer", "history", "steps", "injector", "profiler",
          "txstats"]),
    ]
    rng = random.Random(15)
    for _ in range(4):
        attach = rng.sample(names, len(names))
        before = rng.sample(names, rng.randint(1, 3))
        after = [n for n in names if n not in before] + ["injector"]
        cases.append((attach, before, rng.sample(after, len(after))))
    return cases


class TestStackedObservers:
    """Every observer plus a fault injector on one machine: whatever the
    attach and detach order, each observer still attached sees exactly
    what it sees alone, and the last detach leaves no trace."""

    @pytest.fixture(scope="class")
    def solo(self):
        """Per observer kind, its result when attached alone; plus the
        unobserved run's cycle count."""
        results = {}
        for name, (_, result) in _OBSERVERS.items():
            _, _, observers = _stacked_run([name])
            results[name] = result(observers[name])
        machine, _, _ = _stacked_run([])
        results["cycles"] = machine.stats.get("cycles")
        return results

    @pytest.mark.parametrize("attach,before,after", _stack_orders())
    def test_stacked_detach_is_exact(self, solo, attach, before, after):
        machine, injector, observers = _stacked_run(attach, before)
        assert machine.stats.get("cycles") == solo["cycles"]
        assert injector.n_injections > 0
        for name, observer in observers.items():
            assert _OBSERVERS[name][1](observer) == solo[name], name
        for name in after:
            if name == "injector":
                injector.detach()
            else:
                _detach(machine, name, observers.pop(name))
        for obj, events in ((machine, MACHINE_EVENTS),
                            (machine.htm, HTM_EVENTS)):
            shadows = [attr for attr in vars(obj)
                       if callable(getattr(type(obj), attr, None))]
            assert shadows == [], f"{type(obj).__name__}: {shadows}"
            assert all(getattr(obj, f"_on_{event}") == ()
                       for event in events)


class TestFlagship:
    def test_profiled_flagship_matches_golden_cycles(self):
        """The bench guard: profiling must not perturb the machine.  The
        profiled flagship produces the golden cycle count bit-for-bit,
        and its books balance."""
        from repro.harness.bench import (
            FLAGSHIP_ID,
            load_golden,
            run_flagship_accounting,
        )

        golden = load_golden()[FLAGSHIP_ID]
        account, errors = run_flagship_accounting(expected_cycles=golden)
        assert errors == []
        assert account.cycles == golden
        assert account.balanced, account.problems()
        # detstress is contention heavy: wasted work must be visible.
        assert account.totals["wasted"] > 0

    def test_golden_trace_digest(self):
        """End-to-end determinism pin: the full event stream of the
        4-CPU detstress cell under the deterministic policy hashes to a
        known digest, with the profiler attached alongside."""
        workload = DetectionStressKernel(n_threads=4)
        config = functional_config(n_cpus=4, detection="eager",
                                   max_nesting=8)
        machine = Machine(config, policy=make_policy("det", seed=1))
        profiler = CycleProfiler(machine)
        tracer = Tracer(machine, sink=RingSink(1_000_000))
        runtime = Runtime(machine)
        arena = SharedArena(machine)
        workload.setup(machine, runtime, arena)
        machine.run(max_cycles=2_000_000_000)
        workload.verify(machine)
        tracer.detach()
        profiler.detach()

        assert machine.stats.get("cycles") == GOLDEN_TRACE_CYCLES
        events = tracer.events
        assert len(events) == GOLDEN_TRACE_EVENTS
        text = "\n".join(str(e) for e in events)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            GOLDEN_TRACE_SHA256)
        assert profiler.account().balanced
