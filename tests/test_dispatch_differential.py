"""Differential suite: the table-dispatched interpreter vs the chain.

The interpreter executes ops through a ``type(op) -> bound handler``
dispatch table, interns the hot :class:`ExecOutcome` shapes, and
interns single-field program ops.  The original per-op ``isinstance``
chain is kept verbatim in ``tests/reference.py``, which makes the
equivalence directly testable: for every op kind — core vocabulary,
stall and self-abort paths — both executors must produce identical
outcome fields, identical side effects and identical instruction
counts, or raise the identical error.
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.errors import SimulationError
from repro.common.params import functional_config, paper_config
from repro.htm.conflict import SELF_ABORT, STALL
from repro.isa import context as ctx
from repro.isa.context import latency_outcome
from repro.runtime.core import Runtime
from repro.sim import ops as O
from repro.sim.engine import Machine

from tests.reference import install_chain

WORD = 0x1000
OTHER = 0x2000
SHARED = 0xF_0000


def outcome_fields(outcome):
    """Compare by field, not ``==``: interned outcomes are a subclass."""
    return (outcome.latency, outcome.value, outcome.stall,
            outcome.deschedule)


def fresh_cpu(path="table", **over):
    """CPU 0 of a fresh 2-CPU machine executing through ``path``."""
    machine = Machine(functional_config(n_cpus=2, **over))
    if path == "chain":
        install_chain(machine)
    return machine.cpus[0]


def observable_state(cpu):
    """The per-CPU state an executed op can legally change."""
    return (
        cpu.machine.htm.depth(cpu.cpu_id),
        cpu.isa.viol_reporting,
        cpu.isa.xabort_code,
        cpu.icount,
        cpu.pending_abort,
        cpu.wake_tokens,
        cpu.machine.cpus[1].wake_tokens,
        cpu.machine.memory.read(WORD),
        cpu.machine.memory.read(OTHER),
    )


def run_both(setup_ops, op, **config_over):
    """Execute ``op`` after ``setup_ops`` under each interpreter on its
    own identically-prepared machine; return both observations."""
    observations = []
    for path in ("table", "chain"):
        cpu = fresh_cpu(path, **config_over)
        for setup_op in setup_ops:
            cpu.execute(setup_op, 0)
        try:
            outcome = cpu.execute(op, 1)
        except Exception as error:  # noqa: BLE001 - equal-raise comparison
            observations.append(
                ("raise", type(error), str(error), observable_state(cpu)))
        else:
            observations.append(
                ("ok", outcome_fields(outcome), observable_state(cpu)))
    return observations


#: One scenario per core op kind: (setup ops, the op under test).
#: ``test_scenarios_cover_the_vocabulary`` pins this to ALL_OPS, so a
#: newly added op breaks the suite until a scenario exists for it.
SCENARIOS = {
    O.Load: ([O.ImStore(WORD, 41)], O.Load(WORD)),
    O.Store: ([], O.Store(WORD, 7)),
    O.ImLoad: ([O.ImStore(WORD, 43)], O.ImLoad(WORD)),
    O.ImStore: ([], O.ImStore(WORD, 9)),
    O.ImStoreId: ([], O.ImStoreId(WORD, 11)),
    O.Release: ([O.XBegin(), O.Load(WORD)], O.Release(WORD)),
    O.XBegin: ([], O.XBegin()),
    O.XValidate: ([O.XBegin()], O.XValidate()),
    O.XCommit: ([O.XBegin(), O.Store(WORD, 5)], O.XCommit()),
    O.XAbort: ([O.XBegin()], O.XAbort(code=3)),
    O.XRwSetClear: ([O.XBegin(), O.Store(WORD, 5)],
                    O.XRwSetClear(level=1)),
    O.XRegRestore: ([], O.XRegRestore()),
    O.XVRet: ([], O.XVRet()),
    O.XEnViolRep: ([], O.XEnViolRep()),
    O.XVClear: ([], O.XVClear()),
    O.Alu: ([], O.Alu(4)),
    O.YieldCpu: ([], O.YieldCpu()),
    O.Wake: ([], O.Wake(cpu_id=1)),
    O.Fence: ([], O.Fence()),
    O.SerialAcquire: ([], O.SerialAcquire()),
    O.SerialRelease: ([O.SerialAcquire()], O.SerialRelease()),
}


def test_scenarios_cover_the_vocabulary():
    assert set(SCENARIOS) == set(O.ALL_OPS)


@pytest.mark.parametrize(
    "op_cls", O.ALL_OPS, ids=lambda cls: cls.__name__)
@pytest.mark.parametrize("detection", ["lazy", "eager"])
def test_table_matches_chain(op_cls, detection):
    setup_ops, op = SCENARIOS[op_cls]
    table, chain = run_both(setup_ops, op, detection=detection)
    assert table == chain


def test_error_paths_match():
    """Invalid ops raise identically through both executors."""
    for setup_ops, op in [
        ([], O.XAbort(code=1)),          # xabort outside a transaction
        ([], O.Load(WORD + 1)),          # unaligned address
        ([], O.ImStore(WORD + 2, 1)),    # unaligned immediate store
    ]:
        table, chain = run_both(setup_ops, op)
        assert table == chain
        assert table[0] == "raise"


def test_stall_path_matches():
    """A detector STALL surfaces as the same stalled outcome."""
    for kind in ("load", "store"):
        observations = []
        for path in ("table", "chain"):
            cpu = fresh_cpu(path)
            if kind == "load":
                cpu.machine.htm.load = lambda cpu_id, addr: (STALL, None)
                op = O.Load(WORD)
            else:
                cpu.machine.htm.store = \
                    lambda cpu_id, addr, value: STALL
                op = O.Store(WORD, 1)
            outcome = cpu.execute(op, 0)
            observations.append(outcome_fields(outcome))
            assert outcome.stall
        assert observations[0] == observations[1]


def test_self_abort_path_matches():
    """A detector SELF_ABORT posts the same self-violation both ways."""
    observations = []
    for path in ("table", "chain"):
        cpu = fresh_cpu(path, detection="eager")
        cpu.execute(O.XBegin(), 0)
        cpu.machine.htm.load = lambda cpu_id, addr: (SELF_ABORT, None)
        outcome = cpu.execute(O.Load(WORD), 1)
        observations.append(
            (outcome_fields(outcome), cpu.isa.has_deliverable(),
             cpu.isa.xvcurrent))
        assert outcome.stall
    assert observations[0] == observations[1]


def test_core_op_subclass_is_rejected():
    """The table dispatches on exact type: a subclass of a core op is
    not an operation, and the failed step counts no instructions."""

    @dataclasses.dataclass(frozen=True, slots=True)
    class WideAlu(O.Alu):
        pass

    cpu = fresh_cpu()
    with pytest.raises(SimulationError, match="not an operation: .*WideAlu"):
        cpu.execute(WideAlu(7), 0)
    assert cpu.icount == 0


# ---------------------------------------------------------------------------
# Interned outcomes and ops
# ---------------------------------------------------------------------------

def test_interned_outcomes_are_shared_and_frozen():
    assert latency_outcome(1) is ctx._UNIT
    assert latency_outcome(17) is latency_outcome(17)
    cpu = fresh_cpu()
    stall_a = cpu.execute(O.Alu(1), 0)
    stall_b = cpu.execute(O.Fence(), 0)
    assert stall_a is stall_b is ctx._UNIT
    with pytest.raises(AttributeError):
        ctx._UNIT.value = "corrupt"
    with pytest.raises(AttributeError):
        del ctx._STALL.stall


def test_op_constructors_intern_single_field_ops():
    cpu = fresh_cpu()
    assert cpu.load(WORD) is cpu.load(WORD)
    assert cpu.imld(WORD) is cpu.imld(WORD)
    assert cpu.alu(3) is cpu.alu(3)
    # Interned instances stay value-equal to fresh dataclass instances.
    assert cpu.load(WORD) == O.Load(WORD)
    assert cpu.alu(3) == O.Alu(3)
    # Value-carrying stores are never interned.
    assert cpu.store(WORD, 1) is not cpu.store(WORD, 1)


# ---------------------------------------------------------------------------
# Whole-program equivalence (every CPU on the chain, end to end)
# ---------------------------------------------------------------------------

def _contended_machine(config, chain=False):
    machine = Machine(config)
    if chain:
        install_chain(machine)
    runtime = Runtime(machine)

    def body(t):
        value = yield t.load(SHARED)
        yield t.alu(5)
        yield t.store(SHARED, value + 1)

    def program(t):
        for _ in range(4):
            yield from runtime.atomic(t, body)
        return "ok"

    runtime.spawn(program, cpu_id=0)
    runtime.spawn(program, cpu_id=1)
    machine.run()
    return machine


@pytest.mark.parametrize("detection", ["lazy", "eager"])
def test_full_runs_are_bit_for_bit_identical(detection):
    config = paper_config(n_cpus=2, detection=detection)
    table = _contended_machine(config)
    chain = _contended_machine(config, chain=True)
    assert table.results() == chain.results()
    assert table.stats.as_dict() == chain.stats.as_dict()


# ---------------------------------------------------------------------------
# Property: random op streams execute identically
# ---------------------------------------------------------------------------

_KINDS = ("load", "store", "imload", "imstore", "alu", "fence",
          "begin", "commit")


def _stream_program(tokens):
    def program(t):
        depth = 0
        for kind, slot, value in tokens:
            addr = WORD + slot * 8
            if kind == "load":
                yield O.Load(addr)
            elif kind == "store":
                yield O.Store(addr, value)
            elif kind == "imload":
                yield O.ImLoad(addr)
            elif kind == "imstore":
                yield O.ImStore(addr, value)
            elif kind == "alu":
                yield O.Alu(1 + value % 5)
            elif kind == "fence":
                yield O.Fence()
            elif kind == "begin":
                if depth < 3:
                    yield O.XBegin()
                    depth += 1
            elif kind == "commit":
                if depth:
                    yield O.XValidate()
                    yield O.XCommit()
                    depth -= 1
        while depth:
            yield O.XValidate()
            yield O.XCommit()
            depth -= 1
        return "done"
    return program


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    tokens=st.lists(
        st.tuples(st.sampled_from(_KINDS), st.integers(0, 7),
                  st.integers(0, 99)),
        max_size=40),
    detection=st.sampled_from(["lazy", "eager"]),
)
def test_random_streams_match(tokens, detection):
    outcomes = []
    for chain in (False, True):
        machine = Machine(paper_config(n_cpus=1, detection=detection))
        if chain:
            install_chain(machine)
        machine.add_thread(_stream_program(tokens))
        machine.run()
        outcomes.append(
            (machine.results(), machine.stats.as_dict()))
    assert outcomes[0] == outcomes[1]
