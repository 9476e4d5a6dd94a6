"""Trace-on-failure and the campaign-wide conservation property.

Every check/chaos case and explore node runs with a cycle profiler and
no tracer; a failure's last-K trace ring is rebuilt the first time it is
read, by replaying its deviation list with a tracer attached.  A failing
case must carry its trace tail — including when the campaign fans out
across worker processes, where the result pickles back — and a passing
case must carry none.  On top sits the Hypothesis property: cycle
conservation holds across the whole program × config × policy × fault
space, not just the hand-picked matrix cells.
"""

import hashlib

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.check.explore import explore, replay
from repro.check.fuzz import (
    CONFIGS,
    POLICIES,
    TRACE_RING,
    build_config,
    faulted,
    run_case,
    summarize,
    sweep,
)
from repro.check.history import HistoryRecorder
from repro.check.programs import make_program
from repro.obs.profiler import CycleProfiler
from repro.obs.sinks import RingSink
from repro.sim.schedule import ControlledPolicy
from repro.sim.trace import TraceEvent, Tracer
from repro.workloads.base import Run

#: A reliably failing coordinate: the broken spurious-violation variant
#: loses increments on the counter program (see the oracle self-tests).
FAILING = dict(program_name="counter", config_name="lazy-wb-assoc",
               policy_name="det", seed=0, fault="spurious-violation+broken")


class TestTraceOnFailure:
    def test_failing_case_carries_trace_tail(self):
        result = run_case(**FAILING)
        assert result.failed
        assert result.trace, "failing case shipped no trace"
        assert 0 < len(result.trace) <= TRACE_RING
        assert all(isinstance(event, TraceEvent)
                   for event in result.trace)
        # The tail is the *end* of the run: its last event is near the
        # machine's final cycle, not the beginning.
        assert result.trace[-1].cycle >= result.trace[0].cycle

    def test_trace_appears_in_failure_report(self):
        result = run_case(**FAILING)
        text = str(result)
        assert "trace tail" in text
        assert f"({len(result.trace)} events)" in text

    def test_passing_case_carries_no_trace(self):
        result = run_case("counter", "lazy-wb-assoc", "det", 1)
        assert not result.failed
        assert result.trace == ()

    def test_trace_survives_parallel_campaign_workers(self):
        """The ring must pickle through ``sweep(..., jobs=2)`` and come
        back identical to the serial run's."""
        kwargs = dict(
            programs=["counter"], configs=["lazy-wb-assoc"],
            policies=["det"], seeds=1,
            fault="spurious-violation+broken")
        serial = sweep(jobs=1, **kwargs)
        parallel = sweep(jobs=2, **kwargs)
        _, _, serial_failures = summarize(serial)
        _, _, parallel_failures = summarize(parallel)
        assert serial_failures and parallel_failures
        assert [f.trace for f in parallel_failures] == \
               [f.trace for f in serial_failures]
        assert all(f.trace for f in parallel_failures)

    def test_explore_verdicts_carry_trace_on_failure(self):
        verdict = replay("counter", "lazy-wb-assoc", (),
                         fault="spurious-violation+broken", seed=0)
        assert verdict.failed
        assert verdict.trace
        assert "trace tail" in str(verdict)

    def test_explored_failure_trace_equals_the_live_ring(self):
        """An explore node carries no trace ring: a failing verdict
        rebuilds its tail by replaying its schedule.  At bound 0 the
        explored schedule is the fuzzer's ``det`` one, whose ring is
        recorded live — the two tails must be identical."""
        from repro.check.explore import explore

        report = explore("counter", "lazy-wb-assoc",
                         fault="spurious-violation+broken", seed=0,
                         preemption_bound=0)
        (verdict,) = report.verdicts
        assert verdict.failed and verdict.trace
        assert verdict.trace == run_case(**FAILING).trace

    def test_explore_verdicts_clean_when_passing(self):
        verdict = replay("litmus-sb", "lazy-wb-assoc", (), seed=1)
        assert not verdict.failed
        assert verdict.trace == ()


def _eager_tail(verdict):
    """The trace tail of ``verdict``'s schedule recorded the way every
    run once recorded it: a ring tracer attached up front beside the
    judge's instruments, under the explorer's own policy."""
    program = make_program(verdict.program, seed=verdict.seed)

    def tracer(machine):
        return Tracer(machine, sink=RingSink(TRACE_RING, mode="tail"))

    _, attached, _ = program.run(
        build_config(verdict.config, program), program.max_cycles,
        ControlledPolicy(forced=dict(verdict.deviations)),
        faulted(verdict.fault, verdict.seed,
                [HistoryRecorder, CycleProfiler, tracer]), judge=Run)
    return tuple(attached[-1].events)


def test_explore_builds_no_tracer_until_a_trace_is_read(monkeypatch):
    """A search whose runs nearly all fail attaches no tracer to any of
    them; reading one verdict's trace builds exactly one, once, and its
    tail is the eager tail event for event (the sampled failure's tail
    as the explorer recorded it before traces were rebuilt on demand is
    pinned by its digest)."""
    built = []
    init = Tracer.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Tracer, "__init__", counting)
    report = explore("requeue", "lazy-wb-assoc", fault="drop-requeue",
                     preemption_bound=1)
    failures = report.failures
    assert (report.explored, len(failures)) == (617, 616)
    assert built == []
    sample = failures[len(failures) // 2]
    assert sample.name == "drop-requeue:requeue:lazy-wb-assoc:147@1"
    tail = sample.trace
    assert len(built) == 1 and sample.trace is tail
    text = "\n".join(str(event) for event in tail)
    assert len(tail) == 18 and hashlib.sha256(text.encode()).hexdigest() == (
        "ff7469c5b3ad5d03e4cc2adae46fd2722a3bbd4536d80a66c2f04070c8627b87")
    assert tail == _eager_tail(sample)


# ----------------------------------------------------------------------
# The conservation property, across the whole case space.
# ----------------------------------------------------------------------

#: Faults whose *clean* variants the property may draw (broken variants
#: fail oracles by design; conservation must hold even then, and the
#: targeted tests above cover one).
CLEAN_FAULTS = [None, "spurious-violation", "delayed-violation",
                "token-loss", "validated-abort", "handler-reentry",
                "watch-drop", "io-fault", "alloc-pressure"]

PROGRAM_NAMES = ["counter", "requeue", "condsync", "litmus-sb",
                 "litmus-mp", "iochaos", "bank"]


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    program=st.sampled_from(PROGRAM_NAMES),
    config=st.sampled_from(sorted(CONFIGS)),
    policy=st.sampled_from(POLICIES),
    fault=st.sampled_from(CLEAN_FAULTS),
    seed=st.integers(min_value=0, max_value=6),
)
def test_cycle_conservation_property(program, config, policy, fault, seed):
    """Whatever the schedule, config, policy, or injected fault, every
    simulated cycle lands in exactly one bucket."""
    result = run_case(program, config, policy, seed, fault=fault)
    leaks = [v for v in result.violations
             if v.oracle == "cycle-conservation"]
    assert not leaks, "\n".join(str(v) for v in leaks)
