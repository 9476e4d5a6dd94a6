"""Tests: the process-pool campaign executor and its campaign wirings.

The executor's contract (docs/checking.md, "Running campaigns in
parallel"):

* determinism — a parallel campaign's merged result list is identical
  to the serial one, because every case is a pure function of its
  replayable name and results merge in enumeration order;
* isolation — a case that raises, crashes its worker outright, or hangs
  past the per-case timeout becomes one classified failure result, and
  the rest of the campaign completes;
* ordered progress — the ``report`` callback sees results in
  enumeration order regardless of worker completion order.
"""

import multiprocessing
import os
import signal
import time

import pytest

import repro.harness.parallel as parallel
from repro.check.explore import ScheduleVerdict
from repro.check.fuzz import build_config, sweep
from repro.check.programs import CounterProgram
from repro.harness.parallel import (
    CampaignFailure,
    CaseSpec,
    CaseTimeout,
    call_guarded,
    run_campaign,
    run_spec,
)
from repro.harness.sweep import speedup_curve
from repro.workloads import SwimKernel
from repro.workloads.base import Run

JOBS = 3


class AlarmInBody(CounterProgram):
    """The counter program, with the campaign's alarm landing in the
    first transaction body to run (before any increment commits)."""

    def setup(self, machine, runtime, arena):
        super().setup(machine, runtime, arena)
        self.machine, self.fired_at = machine, None

    def _worker(self, t, jitter):
        def body(t):
            yield t.load(self.addr)
            if self.fired_at is None:
                self.fired_at = self.machine.now
                raise CaseTimeout()

        yield from self._rt.atomic(t, body)
        yield from super()._worker(t, jitter)


def named_spec(runner, *args):
    """A spec whose runner is a module-level function of this module."""
    return CaseSpec(runner=f"{__name__}:{runner}",
                    name=f"{runner}{args}", args=args)


def plus_one(n):
    return n + 1


def staggered(n):
    time.sleep(0.3 if n == 0 else 0.0)  # first case finishes last
    return n


def boom():
    raise KeyError("lost")


def crash_hard():
    os._exit(23)          # bypasses every except clause: a real crash


def livelock():
    while True:           # pure-Python hang; the worker's alarm fires
        pass


def wedge():
    # Signal-immune hang: only the parent's kill-after-grace gets it.
    signal.pthread_sigmask(signal.SIG_BLOCK, [signal.SIGALRM])
    while True:
        pass


class TestExecutor:
    def test_serial_and_parallel_merge_identically(self):
        specs = [named_spec("plus_one", n) for n in range(8)]
        serial = run_campaign(specs, jobs=1)
        parallel = run_campaign(specs, jobs=JOBS)
        assert serial == parallel == [n + 1 for n in range(8)]

    def test_worker_crash_is_isolated(self):
        specs = [named_spec("plus_one", 1), named_spec("crash_hard"),
                 named_spec("plus_one", 2)]
        results = run_campaign(specs, jobs=2)
        assert results[0] == 2 and results[2] == 3
        assert isinstance(results[1], CampaignFailure)
        assert "worker crashed (exit code 23)" in results[1].message

    def test_case_timeout_is_isolated(self):
        specs = [named_spec("plus_one", 1), named_spec("livelock"),
                 named_spec("plus_one", 2)]
        results = run_campaign(specs, jobs=2, timeout=0.5, grace=0.5)
        assert results[0] == 2 and results[2] == 3
        assert "timeout after 0.5s" in results[1].message

    def test_signal_immune_hang_is_killed_after_grace(self):
        specs = [named_spec("wedge"), named_spec("plus_one", 4)]
        results = run_campaign(specs, jobs=2, timeout=0.3, grace=0.3)
        assert "worker killed" in results[0].message
        assert results[1] == 5

    def test_report_streams_in_enumeration_order(self):
        seen = []
        results = run_campaign(
            [named_spec("staggered", n) for n in range(4)], jobs=4,
            report=seen.append)
        assert seen == results == [0, 1, 2, 3]

    def test_serial_exception_is_classified_not_raised(self):
        results = run_campaign([named_spec("boom")], jobs=1)
        assert isinstance(results[0], CampaignFailure)
        assert "KeyError" in results[0].message

    def test_named_specs_run_under_spawn(self, monkeypatch):
        """Specs carry only names, so a campaign whose workers start by
        ``spawn`` (no inherited state) merges as the serial run does."""
        monkeypatch.setattr(parallel, "_context",
                            lambda: multiprocessing.get_context("spawn"))
        specs = [named_spec("plus_one", n) for n in range(3)] + [
            CaseSpec(runner="repro.check.fuzz:run_case",
                     name="counter:lazy-wb-assoc:det:1",
                     args=("counter", "lazy-wb-assoc", "det", 1))]
        spawned = run_campaign(specs, jobs=2)
        assert spawned == run_campaign(specs)
        assert spawned[:3] == [1, 2, 3]
        assert isinstance(spawned[3], ScheduleVerdict)
        assert not spawned[3].failed

    def test_run_spec_resolves_runner_by_name(self):
        spec = CaseSpec(runner="repro.check.fuzz:run_case",
                        name="counter:lazy-wb-assoc:det:1",
                        args=("counter", "lazy-wb-assoc", "det", 1))
        result = run_spec(spec)
        assert isinstance(result, ScheduleVerdict) and not result.failed

    def test_bad_runner_name_rejected(self):
        with pytest.raises(ValueError):
            run_spec(CaseSpec(runner="no-colon", name="x"))


class TestCampaignEquivalence:
    def test_check_parallel_equals_serial(self):
        kwargs = dict(programs=["counter", "requeue"],
                      configs=["lazy-wb-assoc", "eager-wb"],
                      policies=("det", "random"), seeds=2)
        serial = sweep(**kwargs)
        parallel = sweep(jobs=JOBS, **kwargs)
        assert len(serial) == 16
        assert parallel == serial          # dataclass equality, per field
        assert [str(r) for r in parallel] == [str(r) for r in serial]

    def test_chaos_parallel_equals_serial(self):
        kwargs = dict(faults=["spurious-violation", "token-loss"],
                      programs=["counter"], policies=("det",),
                      configs=["lazy-wb-assoc", "eager-wb"], seeds=2)
        serial = sweep(**kwargs)
        parallel = sweep(jobs=JOBS, **kwargs)
        assert len(serial) == 8
        assert parallel == serial
        assert any(r.n_injections for r in parallel)

    def test_unexpected_exception_becomes_run_failure(self, monkeypatch):
        # A case's run only handles ReproError; a buggy program's KeyError
        # must be classified at the campaign boundary, serial or not,
        # without losing the other cases' results.
        import repro.check.programs as programs

        class Buggy:
            def __init__(self, seed=1):
                raise KeyError("buggy program")

        monkeypatch.setitem(programs.PROGRAMS, "counter", Buggy)
        results = sweep(programs=["counter", "requeue"],
                        configs=["lazy-wb-assoc"], policies=("det",),
                        seeds=1)
        assert len(results) == 2
        assert results[0].failed
        assert results[0].violations[0].oracle == "run-failure"
        assert "KeyError" in results[0].error
        assert not results[1].failed       # the campaign kept going

    def test_case_over_budget_is_a_timeout(self):
        """A case's budget is the campaign's, not its node guard's: a
        livelock over ``timeout`` fails as that timeout."""
        (result,) = sweep(faults=["validated-abort+broken"],
                          programs=["iochaos"], configs=["lazy-wb-assoc"],
                          policies=("pct",), seeds=1, timeout=0.5)
        assert result.failed and result.error == "timeout after 0.5s"
        assert result.name == (
            "validated-abort+broken:iochaos:lazy-wb-assoc:pct:1")

    def test_an_alarm_in_a_thread_program_ends_the_run(self):
        """The alarm lands wherever the case is, here inside a
        transaction body: the run stops there, instead of the engine
        recording a thread failure and running the other threads on (a
        livelock then ran to its cycle budget and failed as that)."""
        program = AlarmInBody()
        result = call_guarded(
            program.run, (build_config("lazy-wb-assoc", program),),
            {"judge": Run}, 60, lambda message: message)
        assert result == "timeout after 60s"
        assert program.fired_at is not None
        assert program.machine.memory.read(program.addr) == 0

    def test_crashing_case_yields_run_failure_in_parallel(self, monkeypatch):
        import repro.check.explore as explore_mod

        real_run_node = explore_mod.run_node

        def sabotaged(*args, **kwargs):
            if kwargs["seed"] == 1:
                os._exit(40)
            return real_run_node(*args, **kwargs)

        # fork inherits the monkeypatched module, so workers crash too
        monkeypatch.setattr(explore_mod, "run_node", sabotaged)
        results = sweep(programs=["counter"], configs=["lazy-wb-assoc"],
                        policies=("det",), seeds=2, jobs=2)
        assert results[0].failed
        assert results[0].violations[0].oracle == "run-failure"
        assert "worker crashed" in results[0].error
        assert results[0].name == "counter:lazy-wb-assoc:det:1"
        assert not results[1].failed

    def test_cli_check_jobs_flag(self, capsys):
        from repro.cli import main

        code = main(["check", "--programs", "counter",
                     "--configs", "lazy-wb-assoc", "--policies", "det",
                     "--seeds", "2", "--jobs", "2"])
        assert code == 0
        assert "2 cases run, 0 skipped, 0 failed" in capsys.readouterr().out


class TestBenchParallel:
    def test_matrix_cells_match_serial_and_golden(self):
        from repro.harness.bench import run_bench

        serial, serial_errors = run_bench(
            smoke=True, report=lambda line: None)
        parallel, parallel_errors = run_bench(
            smoke=True, report=lambda line: None, jobs=2)
        assert serial_errors == parallel_errors == []
        assert ([c["id"] for c in parallel["cells"]]
                == [c["id"] for c in serial["cells"]])
        # simulated cycles and steps are wall-clock-independent: exact
        # equality
        assert ([(c["cycles"], c["steps"]) for c in parallel["cells"]]
                == [(c["cycles"], c["steps"]) for c in serial["cells"]])
        assert all(c["ok"] for c in parallel["cells"])

    def test_cell_runner_rejects_unknown_id(self):
        from repro.harness.bench import run_cell_by_id

        with pytest.raises(ValueError):
            run_cell_by_id("no-such-cell")


class TestSpeedupCurveBaseline:
    def test_baseline_is_one_cpu_even_when_not_swept(self):
        # Regression: base_cycles used to come from cpu_counts[0], so a
        # (2, 4) sweep reported the 2-CPU run as "1.00x vs 1 CPU".
        points = speedup_curve(
            lambda n: SwimKernel(n_threads=n, scale=0.25),
            cpu_counts=(2, 4))
        assert points[0].n_cpus == 2
        assert points[0].speedup > 1.2
        assert points[1].speedup > points[0].speedup

        with_one = speedup_curve(
            lambda n: SwimKernel(n_threads=n, scale=0.25),
            cpu_counts=(1, 2, 4))
        assert with_one[0].speedup == 1.0
        assert with_one[1:] == points      # same baseline either way

    def test_actual_cpu_count_is_recorded(self):
        # Regression: a min_cpus() floor used to run at more CPUs than
        # the point's label admitted.
        class Floored(SwimKernel):
            def min_cpus(self):
                return 2

        points = speedup_curve(
            lambda n: Floored(n_threads=n, scale=0.25),
            cpu_counts=(1, 2))
        assert [(p.n_cpus, p.actual_cpus) for p in points] == [(1, 2),
                                                               (2, 2)]

    def test_sweep_point_failure_raises(self):
        def bad_factory(n):
            raise RuntimeError("no workload for you")

        with pytest.raises(RuntimeError, match="no workload for you"):
            speedup_curve(bad_factory, cpu_counts=(2,))
