"""The engine's call stack: ``yield Call(gen)`` means ``yield from gen``.

Each frame of ``Cpu.frames`` (the program, then one per active
dispatcher) owns a call stack in ``Cpu.calls``; ``Runtime.atomic`` runs
its body as a ``Call``.  These tests pin the ``yield from`` semantics
through the stacks: values and exceptions cross them, rollbacks land on
the right ``atomic``, teardown closes innermost first, and a ``Call``
costs no step.
"""

import pytest

from repro.common.errors import CapacityAbort, SimulationError, TxRollback
from repro.common.params import functional_config
from repro.runtime.core import Runtime
from repro.sim import ops as O
from repro.sim.engine import Machine


def build(config=None):
    machine = Machine(config or functional_config(n_cpus=1))
    return machine, Runtime(machine)


def test_return_value_crosses_the_call_stacks():
    """A callee's return value arrives at its caller's ``Call``, at any
    depth, and the ``Call`` itself costs no step and no instruction."""
    machine = Machine(functional_config(n_cpus=1))
    depths = []

    def leaf(t):
        depths.append([len(stack) for stack in t.calls])
        yield t.alu()
        return 40

    def middle(t):
        value = yield O.Call(leaf(t))
        return value + 1

    def program(t):
        value = yield O.Call(middle(t))
        yield t.alu()
        return value + 1

    machine.add_thread(program)
    machine.run()
    assert machine.results()[0] == 42
    assert depths == [[3]]
    # Two ALU steps and the step the program returns in, as with
    # ``yield from``: the Calls cost no step and no instruction.
    assert machine.stats.get("engine.steps") == 3
    assert machine.cpus[0].instructions == 2
    assert machine.cpus[0].calls == []


def test_exception_crosses_the_call_stacks():
    """An exception a callee raises is raised at its caller's ``Call``
    and pops the callee, like ``yield from``."""
    machine = Machine(functional_config(n_cpus=1))

    def failing(t):
        yield t.alu()
        raise KeyError("deep")

    def program(t):
        try:
            yield O.Call(failing(t))
        except KeyError as error:
            yield t.alu()
            return ("caught", error.args[0], len(t.calls[0]))

    machine.add_thread(program)
    machine.run()
    assert machine.results()[0] == ("caught", "deep", 1)


def test_rollback_at_depth_three_is_caught_by_its_atomic():
    """A voluntary abort at nesting level 3 throws ``TxRollback`` into
    the level-3 body, five generators up the program's call stack; the
    level-3 ``atomic`` catches it and restarts only its own body."""
    machine, rt = build()
    runs = {1: 0, 2: 0, 3: 0}
    stack_depths = []

    def level3(t):
        runs[3] += 1
        stack_depths.append(len(t.calls[0]))
        yield t.alu()
        if runs[3] == 1:
            yield from rt.abort(t, "again")
        return "3"

    def level2(t):
        runs[2] += 1
        inner = yield from rt.atomic(
            t, level3, abort_policy=lambda code: "restart")
        return inner + "2"

    def level1(t):
        runs[1] += 1
        inner = yield from rt.atomic(t, level2)
        return inner + "1"

    def program(t):
        result = yield from rt.atomic(t, level1)
        return result

    rt.spawn(program)
    machine.run()
    assert machine.results()[0] == "321"
    assert runs == {1: 1, 2: 1, 3: 2}
    # _thread_main, program, level1, level2, level3.
    assert stack_depths == [5, 5]
    assert machine.stats.get("cpu0.rt.retries") == 1


def test_capacity_abort_unwinds_to_level_one():
    """A capacity overflow at level 3 unwinds every body on the call
    stack down to the level-1 ``atomic``, which surfaces the abort."""
    line = 32
    config = functional_config(
        n_cpus=1, nesting_scheme="associativity", l2_size=2 * 2 * line,
        l2_assoc=2, l1_size=2 * 2 * line, l1_assoc=2)
    machine, rt = build(config)
    unwound = []

    def level3(t):
        try:
            for i in range(64):
                yield t.store(0x6_0000 + i * line, i)
        finally:
            unwound.append(3)

    def level2(t):
        try:
            yield from rt.atomic(t, level3)
        finally:
            unwound.append(2)

    def level1(t):
        try:
            yield from rt.atomic(t, level2)
        finally:
            unwound.append(1)

    def program(t):
        try:
            yield from rt.atomic(t, level1)
        except CapacityAbort as abort:
            yield t.alu()
            return (abort.level, t.depth(), len(t.calls[0]))
        return None

    rt.spawn(program)
    machine.run()
    assert machine.results()[0] == (1, 0, 2)
    assert unwound == [3, 2, 1]
    assert machine.stats.get("cpu0.htm.capacity_aborts") == 1


def test_kill_closes_innermost_first():
    """Killing a CPU closes its generators innermost first: each
    callee's ``finally`` runs before its caller's."""
    machine = Machine(functional_config(n_cpus=1))
    closed = []

    def nested(t, name, inner):
        try:
            if inner is None:
                yield "not an op"
            else:
                yield O.Call(inner(t))
        finally:
            closed.append(name)

    def program(t):
        yield from nested(t, "program", lambda t: nested(
            t, "middle", lambda t: nested(t, "leaf", None)))

    machine.add_thread(program)
    with pytest.raises(SimulationError, match="non-op"):
        machine.run()
    assert closed == ["leaf", "middle", "program"]
    assert machine.cpus[0].frames == machine.cpus[0].calls == []


def test_call_from_a_dispatcher_frame():
    """An abort handler runs in the abort dispatcher's frame; a ``Call``
    there pushes onto that frame's call stack, not the program's."""
    machine, rt = build()
    seen = []

    def helper(t):
        seen.append([len(stack) for stack in t.calls])
        yield t.alu()
        return "helped"

    def handler(t):
        seen.append((yield O.Call(helper(t))))

    def body(t):
        yield from rt.register_abort_handler(t, handler)
        yield from rt.abort(t, "stop")

    def program(t):
        committed, code = yield from rt.try_atomic(t, body)
        return committed, code, len(t.frames)

    rt.spawn(program)
    machine.run()
    assert machine.results()[0] == (False, "stop", 1)
    # The program's stack: _thread_main, program, atomic's body; the
    # dispatcher's: the dispatcher and the helper.
    assert seen == [[3, 2], "helped"]


def test_call_of_a_non_generator_is_a_simulation_error():
    """``Call`` of something that is not a generator raises
    ``SimulationError`` at the yield, where the program may catch it;
    uncaught, it fails the run instead of crashing the engine."""
    machine = Machine(functional_config(n_cpus=2))

    def catching(t):
        try:
            yield O.Call(42)
        except SimulationError as error:
            yield t.alu()
            return str(error)
        return None

    def plain(t):
        yield O.Call(lambda: 42)

    machine.add_thread(catching)
    machine.add_thread(plain)
    with pytest.raises(SimulationError, match="non-generator"):
        machine.run()
    assert "non-generator: 42" in machine.results()[0]
    assert machine.cpus[1].calls == []

