"""Regression tests for engine bugs found (and fixed) during bring-up.

Each test reconstructs the interleaving that exposed the bug; see
DESIGN.md §6b for the narrative.
"""

import pytest

from repro.common.errors import SimulationError
from repro.common.params import functional_config
from repro.runtime.core import RESUME, Runtime
from repro.sim.engine import Machine

SHARED = 0x12_0000
OTHER = 0x12_1000


def build(n_cpus=3):
    machine = Machine(functional_config(n_cpus=n_cpus))
    runtime = Runtime(machine)
    return machine, runtime


class TestDispatcherUnwindKeepsRecords:
    """Bug: a violation record being handled was dropped when its
    dispatcher got unwound by a nested rollback (lost wakeups in
    condsync).  The record must be re-delivered."""

    def test_record_redelivered_after_nested_unwind(self):
        machine, runtime = build(3)
        handled = []

        def level1_handler(t):
            handled.append("level1-handler")
            # Handler runs an open-nested transaction on contended data;
            # that transaction will be violated, and its rollback (to the
            # open level) unwinds... nothing below the outer record.
            def touch(t):
                value = yield t.load(OTHER)
                yield t.alu(120)
                yield t.store(OTHER, value + 1)

            yield from runtime.atomic_open(t, touch)

        def victim(t):
            rounds = []

            def body(t):
                rounds.append(1)
                value = yield t.load(SHARED)
                if len(rounds) == 1:
                    yield from runtime.register_violation_handler(
                        t, level1_handler)
                    yield t.alu(500)
                return value

            result = yield from runtime.atomic(t, body)
            return (result, len(rounds))

        def attacker_shared(t):
            yield t.alu(60)

            def body(t):
                yield t.store(SHARED, 7)

            yield from runtime.atomic(t, body)

        def attacker_other(t):
            # Keep OTHER hot so the handler's open transaction conflicts.
            for _ in range(12):
                def body(t):
                    value = yield t.load(OTHER)
                    yield t.alu(15)
                    yield t.store(OTHER, value + 1)

                yield from runtime.atomic(t, body)

        runtime.spawn(victim, cpu_id=0)
        runtime.spawn(attacker_shared, cpu_id=1)
        runtime.spawn(attacker_other, cpu_id=2)
        machine.run(max_cycles=10_000_000)
        result, rounds = machine.results()[0]
        # the victim eventually restarted (record not lost) and re-read
        assert rounds >= 2
        assert result == 7
        assert handled  # the handler really ran

    def test_violation_registers_saved_across_nested_dispatch(self):
        """Bug: nested dispatch clobbered xvcurrent/xvaddr of the record
        below; on unwind the wrong (empty) record was re-queued."""
        machine, runtime = build(3)
        captured = []

        def resume_handler(t):
            # Runs for the OTHER-line violation at the open level while
            # the SHARED-line record is still being handled below.
            captured.append(("inner", t.isa.xvaddr))
            yield t.alu()
            return RESUME

        def outer_handler(t):
            captured.append(("outer", t.isa.xvaddr))

            def touch(t):
                yield from runtime.register_violation_handler(
                    t, resume_handler)
                value = yield t.load(OTHER)
                yield t.alu(200)
                yield t.store(OTHER, value + 1)

            yield from runtime.atomic_open(t, touch)
            captured.append(("outer-after", t.isa.xvaddr))

        def victim(t):
            rounds = []

            def body(t):
                rounds.append(1)
                value = yield t.load(SHARED)
                if len(rounds) == 1:
                    yield from runtime.register_violation_handler(
                        t, outer_handler)
                    yield t.alu(400)
                return value

            yield from runtime.atomic(t, body)

        def attacker_shared(t):
            yield t.alu(50)

            def body(t):
                yield t.store(SHARED, 1)

            yield from runtime.atomic(t, body)

        def attacker_other(t):
            yield t.alu(80)
            for _ in range(6):
                def body(t):
                    value = yield t.load(OTHER)
                    yield t.alu(30)
                    yield t.store(OTHER, value + 1)

                yield from runtime.atomic(t, body)

        runtime.spawn(victim, cpu_id=0)
        runtime.spawn(attacker_shared, cpu_id=1)
        runtime.spawn(attacker_other, cpu_id=2)
        machine.run(max_cycles=10_000_000)
        line = SHARED - SHARED % machine.config.line_size
        outer_records = [a for tag, a in captured if tag == "outer"]
        after_records = [a for tag, a in captured if tag == "outer-after"]
        assert outer_records and outer_records[0] == line
        # after the nested dispatch, the outer record's xvaddr is intact
        for addr in after_records:
            assert addr == line


class TestNoZeroTimeDispatchLoop:
    """Bug: pushing a dispatcher while a TxRollback was pending threw the
    rollback into the new dispatcher, which re-queued the record — a
    zero-cycle infinite loop.  Guard: never dispatch over a pending
    rollback; the simulation below must terminate promptly."""

    def test_rollback_with_queued_records_terminates(self):
        machine, runtime = build(3)

        def victim(t):
            def body(t):
                a = yield t.load(SHARED)
                b = yield t.load(OTHER)
                yield t.alu(300)
                return a + b

            result = yield from runtime.atomic(t, body)
            return result

        def attacker(addr):
            def program(t):
                yield t.alu(60)
                for _ in range(4):
                    def body(t):
                        value = yield t.load(addr)
                        yield t.alu(10)
                        yield t.store(addr, value + 1)

                    yield from runtime.atomic(t, body)
            return program

        runtime.spawn(victim, cpu_id=0)
        runtime.spawn(attacker(SHARED), cpu_id=1)
        runtime.spawn(attacker(OTHER), cpu_id=2)
        # Tight step budget: a zero-time loop would blow through it.
        machine.run(max_cycles=5_000_000, max_steps=500_000)
        assert machine.results()[0] == 8


class TestOpResultSurvivesDispatch:
    """Bug: a dispatcher pushed between an op's execution and its result
    delivery consumed the pending send value (crash: "can't send non-None
    value to a just-started generator")."""

    def test_interrupted_load_result_redelivered_on_resume(self):
        machine, runtime = build(2)

        def ignore(t):
            yield t.alu()
            return RESUME

        def victim(t):
            def body(t):
                yield from runtime.register_violation_handler(t, ignore)
                values = []
                for i in range(40):
                    values.append((yield t.load(SHARED)))
                    yield t.alu(5)
                return values

            values = yield from runtime.atomic(t, body)
            return values

        def attacker(t):
            yield t.alu(40)
            for _ in range(5):
                def body(t):
                    value = yield t.load(SHARED)
                    yield t.store(SHARED, value + 1)

                yield from runtime.atomic(t, body)
                yield t.alu(25)

        runtime.spawn(victim, cpu_id=0)
        runtime.spawn(attacker, cpu_id=1)
        machine.run(max_cycles=10_000_000)
        values = machine.results()[0]
        assert len(values) == 40
        # resumed transaction: values move monotonically with commits
        assert values == sorted(values)


class TestEagerProgress:
    """Bugs: timestamp ties made same-age transactions kill each other
    forever; and a winning requester that proceeded immediately could
    read a victim's doomed in-place (undo-log) data."""

    def test_symmetric_contention_makes_progress(self):
        config = functional_config(
            n_cpus=4, detection="eager", versioning="undo_log")
        machine = Machine(config)
        runtime = Runtime(machine)

        def program(t):
            for _ in range(6):
                def body(t):
                    value = yield t.load(SHARED)
                    yield t.alu(20)
                    yield t.store(SHARED, value + 1)

                yield from runtime.atomic(t, body)

        for cpu in range(4):
            runtime.spawn(program, cpu_id=cpu)
        machine.run(max_cycles=5_000_000, max_steps=2_000_000)
        assert machine.memory.read(SHARED) == 24

    def test_winner_never_reads_doomed_data(self):
        """The winning requester must observe either the victim's
        pre-transaction or committed value — never its in-flight
        speculative store."""
        config = functional_config(
            n_cpus=2, detection="eager", versioning="undo_log")
        machine = Machine(config)
        runtime = Runtime(machine)
        observed = []

        def older(t):
            # Begins first => wins conflicts.  Reads late.
            def body(t):
                yield t.alu(120)
                value = yield t.load(SHARED)
                return value

            value = yield from runtime.atomic(t, body)
            observed.append(value)

        def younger(t):
            yield t.alu(10)

            def body(t):
                yield t.store(SHARED, 666)   # doomed speculative value
                yield t.alu(500)
                yield t.store(SHARED, 777)   # commits this eventually

            yield from runtime.atomic(t, body)

        runtime.spawn(older, cpu_id=0)
        runtime.spawn(younger, cpu_id=1)
        machine.run(max_cycles=5_000_000)
        assert observed[0] in (0, 777)   # never 666


class TestStepLimitCountsExecutedSteps:
    """Bug: ``run(max_steps=N)`` counted the step it refused, so after
    the overrun ``engine.steps`` read N + 1 while only N instructions
    ran."""

    def test_overrun_counts_only_executed_steps(self):
        machine = Machine(functional_config(n_cpus=1))

        def program(t):
            for _ in range(100):
                yield t.alu(1)

        machine.add_thread(program, cpu_id=0)
        with pytest.raises(SimulationError, match="exceeded 10 steps"):
            machine.run(max_steps=10)
        assert machine.stats.get("engine.steps") == 10
        assert machine.cpus[0].instructions == 10
