"""Tests for the extension layers: tracing, contention policies,
try_atomic, the serial (virtualization) fallback, and profiles."""

import pytest

from repro.common.errors import ConfigError, TxAborted
from repro.common.params import functional_config
from repro.runtime.contention import (
    ExponentialBackoff,
    RetryCap,
    run_with_policy,
)
from repro.runtime.core import Runtime
from repro.sim.engine import Machine
from repro.sim.trace import Tracer

SHARED = 0xF_0000


def build(n_cpus=2, **over):
    machine = Machine(functional_config(n_cpus=n_cpus, **over))
    runtime = Runtime(machine)
    return machine, runtime


def contended_pair(runtime, rounds=4, think=40):
    def body(t):
        value = yield t.load(SHARED)
        yield t.alu(think)
        yield t.store(SHARED, value + 1)

    def program(t):
        for _ in range(rounds):
            yield from runtime.atomic(t, body)
        return "ok"

    return program


class TestTracer:
    def test_records_commits_and_violations(self):
        machine, runtime = build()
        with Tracer(machine) as tracer:
            runtime.spawn(contended_pair(runtime), cpu_id=0)
            runtime.spawn(contended_pair(runtime), cpu_id=1)
            machine.run()
        commits = tracer.of_kind("commit")
        assert len(commits) == 8
        assert tracer.of_kind("violation")
        assert tracer.of_kind("dispatch")
        assert tracer.of_kind("rollback")
        assert machine.memory.read(SHARED) == 8

    def test_kind_filter(self):
        machine, runtime = build()
        with Tracer(machine, kinds={"commit"}) as tracer:
            runtime.spawn(contended_pair(runtime), cpu_id=0)
            runtime.spawn(contended_pair(runtime), cpu_id=1)
            machine.run()
        assert {e.kind for e in tracer.events} == {"commit"}

    def test_unknown_kind_rejected(self):
        machine, _ = build()
        with pytest.raises(ValueError):
            Tracer(machine, kinds={"explosions"})

    def test_detach_restores_seams(self):
        machine, runtime = build()
        tracer = Tracer(machine)
        # The tracer subscribes; it does not shadow the HTM's methods.
        assert "commit" not in vars(machine.htm)
        assert machine.htm._on_commit == (tracer.on_commit,)
        assert machine._on_violation == (tracer.on_violation,)
        tracer.detach()
        assert machine.htm._on_commit == ()
        assert machine._on_violation == ()
        tracer.detach()   # idempotent
        # and the machine still works untraced
        runtime.spawn(contended_pair(runtime, rounds=1), cpu_id=0)
        machine.run()
        assert machine.memory.read(SHARED) == 1

    def test_queries_and_format(self):
        machine, runtime = build()
        with Tracer(machine) as tracer:
            runtime.spawn(contended_pair(runtime, rounds=2), cpu_id=0)
            runtime.spawn(contended_pair(runtime, rounds=2), cpu_id=1)
            machine.run()
        assert all(e.cpu == 0 for e in tracer.for_cpu(0))
        text = tracer.format(kinds={"commit"})
        assert "commit" in text
        window = tracer.between(0, machine.now)
        assert len(window) == len(tracer.events)

    def test_event_limit(self):
        machine, runtime = build()
        with Tracer(machine, limit=3) as tracer:
            runtime.spawn(contended_pair(runtime), cpu_id=0)
            runtime.spawn(contended_pair(runtime), cpu_id=1)
            machine.run()
        assert len(tracer.events) == 3


class TestContentionPolicies:
    def test_exponential_backoff_grows_to_cap(self):
        policy = ExponentialBackoff(base=10, factor=2.0, cap=100,
                                    jitter=0.0)
        waits = [policy.backoff_cycles(k) for k in range(1, 8)]
        assert waits == [10, 20, 40, 80, 100, 100, 100]

    def test_jitter_is_deterministic_per_seed(self):
        first = ExponentialBackoff(seed=7)
        second = ExponentialBackoff(seed=7)
        assert [first.backoff_cycles(k) for k in range(1, 5)] == \
            [second.backoff_cycles(k) for k in range(1, 5)]

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            ExponentialBackoff(base=0)
        with pytest.raises(ValueError):
            RetryCap(max_attempts=0)

    def test_retry_cap_gives_up(self):
        policy = RetryCap(max_attempts=2)
        assert policy.backoff_cycles(1) == 0
        assert policy.backoff_cycles(2) == 0
        assert policy.backoff_cycles(3) is None

    def test_backoff_under_real_contention(self):
        machine, runtime = build(n_cpus=4)
        policy = {cpu: ExponentialBackoff(seed=cpu) for cpu in range(4)}

        def program(t):
            def body(t):
                value = yield t.load(SHARED)
                yield t.alu(40)
                yield t.store(SHARED, value + 1)

            for _ in range(4):
                yield from run_with_policy(
                    runtime, t, body, policy=policy[t.cpu_id])
            return "done"

        for cpu in range(4):
            runtime.spawn(program, cpu_id=cpu)
        machine.run()
        assert machine.memory.read(SHARED) == 16

    def test_retry_cap_surfaces_txaborted(self):
        machine, runtime = build(n_cpus=2)
        outcomes = []

        def hog(t):
            def body(t):
                value = yield t.load(SHARED)
                yield t.alu(10)
                yield t.store(SHARED, value + 1)

            for _ in range(120):
                yield from runtime.atomic(t, body)

        def capped(t):
            def body(t):
                value = yield t.load(SHARED)
                yield t.alu(500)           # always loses
                yield t.store(SHARED, value + 100)

            try:
                yield from run_with_policy(
                    runtime, t, body,
                    policy=RetryCap(max_attempts=2))
                outcomes.append("committed")
            except TxAborted as aborted:
                outcomes.append(aborted.code)

        runtime.spawn(hog, cpu_id=0)
        runtime.spawn(capped, cpu_id=1)
        machine.run()
        # the hog outlives both permitted attempts
        assert outcomes == ["retry-cap"]


class TestTryAtomic:
    def test_success_path(self):
        machine, runtime = build(1)

        def body(t):
            yield t.store(SHARED, 5)
            return "did-it"

        def program(t):
            result = yield from runtime.try_atomic(t, body)
            return result

        runtime.spawn(program)
        machine.run()
        assert machine.results()[0] == (True, "did-it")
        assert machine.memory.read(SHARED) == 5

    def test_alternative_path(self):
        machine, runtime = build(1)

        def body(t):
            yield t.store(SHARED, 5)
            yield from runtime.abort(t, code="try-failed")

        def alternative(t):
            yield t.store(SHARED + 64, 7)
            return "plan-b"

        def program(t):
            result = yield from runtime.try_atomic(
                t, body, alternative=alternative)
            return result

        runtime.spawn(program)
        machine.run()
        assert machine.results()[0] == (False, "plan-b")
        assert machine.memory.read(SHARED) == 0       # body undone
        assert machine.memory.read(SHARED + 64) == 7  # alternative ran

    def test_no_alternative_returns_code(self):
        machine, runtime = build(1)

        def body(t):
            yield from runtime.abort(t, code=42)

        def program(t):
            result = yield from runtime.try_atomic(t, body)
            return result

        runtime.spawn(program)
        machine.run()
        assert machine.results()[0] == (False, 42)


class TestSerialFallback:
    def tiny_capacity_config(self, **over):
        return functional_config(
            n_cpus=2, l2_size=4 * 32, l2_assoc=2, l1_size=4 * 32,
            l1_assoc=2, **over)

    def test_overflowing_transaction_completes_serially(self):
        machine = Machine(self.tiny_capacity_config())
        runtime = Runtime(machine)
        big_base = 0x10_0000

        def big(t):
            for i in range(32):
                yield t.store(big_base + i * 32, i + 1)
            return "big-done"

        def program(t):
            result = yield from runtime.atomic_with_fallback(t, big)
            return result

        runtime.spawn(program, cpu_id=0)
        machine.run()
        assert machine.results()[0] == "big-done"
        assert machine.memory.read(big_base) == 1
        assert machine.memory.read(big_base + 31 * 32) == 32
        assert machine.stats.total("rt.serial_fallbacks") == 1

    def test_small_transactions_unaffected(self):
        machine = Machine(self.tiny_capacity_config())
        runtime = Runtime(machine)

        def small(t):
            value = yield t.load(SHARED)
            yield t.store(SHARED, value + 1)

        def program(t):
            yield from runtime.atomic_with_fallback(t, small)

        runtime.spawn(program, cpu_id=0)
        machine.run()
        assert machine.memory.read(SHARED) == 1
        assert machine.stats.total("rt.serial_fallbacks") == 0

    def test_serial_writer_violates_speculative_readers(self):
        """Strong atomicity during the fallback: a transaction that read
        the serial writer's data restarts and sees a consistent state."""
        machine = Machine(self.tiny_capacity_config())
        runtime = Runtime(machine)
        big_base = 0x10_0000

        def big(t):
            for i in range(32):
                yield t.store(big_base + i * 32, 7)
            return "big-done"

        def big_program(t):
            result = yield from runtime.atomic_with_fallback(t, big)
            return result

        def reader(t):
            def body(t):
                first = yield t.load(big_base)
                yield t.alu(2000)
                last = yield t.load(big_base + 31 * 32)
                return first, last

            result = yield from runtime.atomic(t, body)
            return result

        runtime.spawn(big_program, cpu_id=0)
        runtime.spawn(reader, cpu_id=1)
        machine.run()
        first, last = machine.results()[1]
        assert (first, last) in ((0, 0), (7, 7))   # never torn

    def test_fallback_rejected_on_undo_log(self):
        machine = Machine(functional_config(
            n_cpus=1, versioning="undo_log", detection="eager"))
        runtime = Runtime(machine)

        def body(t):
            yield t.alu(1)

        def program(t):
            yield from runtime.atomic_with_fallback(t, body)

        runtime.spawn(program)
        with pytest.raises(ConfigError):
            machine.run()


class TestProfile:
    def test_profile_fields(self):
        from repro.harness.profile import format_profiles, profile_machine

        machine, runtime = build()
        runtime.spawn(contended_pair(runtime), cpu_id=0)
        runtime.spawn(contended_pair(runtime), cpu_id=1)
        machine.run()
        profile = profile_machine(machine)
        assert profile.cycles == machine.now
        assert profile.commits_outer == 8
        assert profile.violations >= 1
        assert profile.retries >= 1
        assert 1 in profile.rollbacks_by_level
        assert profile.total_commits == 8
        assert profile.violations_per_commit > 0
        text = format_profiles([("pair", profile)])
        assert "pair" in text and "violations" in text

    def test_timing_profile_has_cache_rates(self):
        from repro.common.params import paper_config
        from repro.harness.profile import profile_machine
        from repro.workloads import SwimKernel

        machine = SwimKernel(n_threads=2, scale=0.25).run(
            paper_config(n_cpus=2))
        profile = profile_machine(machine)
        assert 0.0 < profile.l1_hit_rate <= 1.0
        assert 0.0 <= profile.bus_utilization < 1.0
