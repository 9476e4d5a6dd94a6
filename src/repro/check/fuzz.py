"""Schedule-exploration fuzzing: sweep seeds × configs × policies.

The driver runs the adversarial programs (:mod:`repro.check.programs`)
on small machines spanning the paper's design space — lazy/eager
detection, write-buffer/undo-log versioning, multi-tracking/associativity
nesting, functional and timing (simple and MSI) memory models — under the
schedule policies of :mod:`repro.sim.schedule`, and checks every run with
the oracles of :mod:`repro.check.oracles`.

Every case is a pure function of its name (:func:`case_name`) and so of
the scheduling choices it made.  A randomized policy records them
(:class:`~repro.sim.schedule.RecordingPolicy`), so any failure is an
explorer *deviation list*: :func:`shrink` minimises it with ddmin, and
every ``check``, ``chaos`` or ``explore`` failure prints one line,
``python -m repro explore --replay [fault:]program:config:deviations
--seed S``.

Fault injection (:mod:`repro.faults`): every case takes an optional
``fault`` axis naming a :class:`~repro.faults.plan.FaultPlan` — one of
the eight recoverable chaos kinds (``spurious-violation``, ...,
``alloc-pressure``), its deliberately mis-recovered ``+broken`` variant,
or the legacy ``drop-requeue`` (which disables the §6b.2
violation-record re-queue, re-introducing the lost-wakeup bug the design
fixed; the ``requeue`` and ``condsync`` programs catch it).  The plan
pre-draws all its decisions from the seed, so a fault-injected failure
replays like any other.  Recoverable kinds additionally run the
fault-quiescence oracle: the hardware must end the run with no open or
half-committed transaction left behind.
"""

from __future__ import annotations

import dataclasses
from functools import cached_property

from repro.common.params import (
    EAGER,
    MULTI_TRACKING,
    UNDO_LOG,
    functional_config,
)
from repro.faults import FAULT_KINDS, FAULT_NAMES, FaultInjector, make_plan
from repro.harness.parallel import CaseSpec, run_campaign
from repro.sim.schedule import (
    RecordingPolicy,
    ReplayPolicy,
    make_policy,
    schedule_deviations,
)

from repro.obs.profiler import CycleProfiler
from repro.obs.sinks import RingSink
from repro.sim.trace import Tracer

from repro.check.history import HistoryRecorder
from repro.check.oracles import (
    OracleViolation,
    check_cycle_conservation,
    check_fault_quiescence,
    check_lost_wakeups,
    check_serializability,
)
from repro.check.programs import PROGRAMS, make_program
from repro.spec.replay import check_conformance
from repro.workloads.base import Run

#: Events kept in a failure's trace tail (the last K of its run).
TRACE_RING = 64

#: The configuration matrix, named so failures replay by name.
CONFIGS = {
    "lazy-wb-assoc": {},
    "lazy-wb-mt": {"nesting_scheme": MULTI_TRACKING},
    "eager-wb": {"detection": EAGER},
    "eager-undo": {"detection": EAGER, "versioning": UNDO_LOG},
    "lazy-timing-simple": {"timing": True},
    "lazy-timing-msi": {"timing": True, "coherence": "msi"},
}

#: Configs swept at full seed depth; the timing configs get
#: ``timing_seeds``.  With caches allocating sets on first fill a
#: timing case costs about what a functional one does (a det case
#: averages 5.0-5.8 ms against 4.6-7.9 ms, 2-core x86-64 host, Python
#: 3.11); their extra coverage is cycle accounting, not semantics.
FAST_CONFIGS = ("lazy-wb-assoc", "lazy-wb-mt", "eager-wb", "eager-undo")

POLICIES = ("det", "random", "pct")

#: Every fault name a case accepts (chaos kinds, +broken variants,
#: legacy drop-requeue).
FAULTS = FAULT_NAMES

#: The recoverable kinds the chaos matrix must survive cleanly.
CHAOS_FAULTS = FAULT_KINDS


def case_name(program_name, config_name, policy_name, seed, fault=None):
    """A case's name, ``[fault:]program:config:policy:seed``."""
    name = f"{program_name}:{config_name}:{policy_name}:{seed}"
    return f"{fault}:{name}" if fault else name


class FailureTrace:
    """A failure and its trace tail, rebuilt (:func:`failure_trace`) when
    first read: the part of :class:`CaseResult` and the explorer's
    ``ScheduleVerdict`` they share."""

    @property
    def failed(self):
        return bool(self.violations)

    @cached_property
    def trace(self):
        """The last :data:`TRACE_RING` events of a failing run that
        stepped, else empty."""
        if not (self.failed and self.n_steps):
            return ()
        return failure_trace(self.program, self.config, self.deviations,
                             self.fault, self.seed, self.max_cycles)

    def _failure_lines(self, header):
        """``header``, then the violations and the trace tail."""
        lines = [header] + [f"  {violation}" for violation in self.violations]
        if self.trace:
            lines.append(f"  trace tail ({len(self.trace)} events):")
            lines += [f"    {event}" for event in self.trace]
        return "\n".join(lines)


@dataclasses.dataclass
class CaseResult(FailureTrace):
    """Outcome of one fuzz case."""

    program: str
    config: str
    policy: str
    seed: int
    skipped: bool = False
    violations: list = dataclasses.field(default_factory=list)
    n_committed: int = 0
    commit_cpus: tuple = ()      # committing CPU per commit, in order
    error: str = None
    fault: str = None            # fault name, if one was injected
    n_injections: int = 0        # how many times the plan fired
    fired: tuple = ()            # (opportunity, cpu, detail) per injection
    #: The recorded schedule of a *failing* randomized run (empty on a
    #: pass and under ``det``); see
    #: :class:`~repro.sim.schedule.RecordingPolicy`.
    schedule: bytes = b""
    #: Engine steps the run took; 0 for a case that never ran.
    n_steps: int = 0
    #: The cycle budget the case ran under (None: the program's own).
    max_cycles: int = None

    @property
    def name(self):
        """The case's name (see :func:`case_name`)."""
        return case_name(self.program, self.config, self.policy,
                         self.seed, self.fault)

    @property
    def deviations(self):
        """The ``(step, cpu)`` deviation list that replays the run."""
        return schedule_deviations(self.schedule)

    def __str__(self):
        if self.skipped:
            return f"{self.name}: skipped (scenario needs another config)"
        injected = (f", {self.n_injections} injections"
                    if self.fault else "")
        if not self.failed:
            return f"{self.name}: ok ({self.n_committed} commits{injected})"
        return self._failure_lines(
            f"{self.name}: FAILED ({self.n_committed} commits{injected})")


def build_config(config_name, program):
    overrides = dict(CONFIGS[config_name])
    n_cpus = max(4, program.min_cpus())
    return functional_config(n_cpus=n_cpus, **overrides)


def faulted(fault, seed, instruments):
    """``instruments`` (``Workload.run`` factories) behind the injector
    of fault ``fault`` at ``seed``, if any: first to attach, last off."""
    if fault is None:
        return list(instruments)
    if fault not in FAULTS:
        raise ValueError(f"unknown fault {fault!r}; choose from {FAULTS}")
    return [lambda machine: FaultInjector(make_plan(fault, seed), machine),
            *instruments]


def collect_violations(program, machine, history, profiler, error, fault):
    """The one judge of a finished run: final-state verification, the
    oracle battery and cycle conservation over ``profiler``'s books;
    shared by :func:`run_case` and the explorer
    (:mod:`repro.check.explore`), so both drivers judge a schedule by
    exactly the same rules.  Returns ``(violations, error)`` — ``error``
    may have been raised by ``program.verify``.
    """
    error = program.checked(machine, error)
    violations = list(check_serializability(history))
    violations += check_lost_wakeups(machine, error, program.waiter_cpus)
    if error is None:
        violations += program.check_final(machine, history)
        if fault is not None:
            violations += check_fault_quiescence(machine, error)
    elif not violations:
        # The run failed in a way no specific oracle classified; surface
        # it rather than letting a crash read as a pass.
        violations.append(OracleViolation(
            "run-failure", f"{type(error).__name__}: {error}"))
    # The strongest oracle next: differential replay against the
    # abstract reference semantics (repro.spec).
    violations += check_conformance(program, machine, history, error,
                                    fault)
    violations += check_cycle_conservation(profiler.account())
    return violations, error


def failure_trace(program_name, config_name, deviations, fault=None,
                  seed=1, max_cycles=None):
    """The last :data:`TRACE_RING` events of the run ``deviations`` names,
    from a replay with a tracer attached: a run is a pure function of
    its scheduling choices, so the replay makes the original's events."""
    program = make_program(program_name, seed=seed)

    def tracer(machine):
        return Tracer(machine, sink=RingSink(TRACE_RING, mode="tail"))

    return program.run(
        build_config(config_name, program),
        max_cycles or program.max_cycles, ReplayPolicy(deviations),
        faulted(fault, seed, [tracer]),
        judge=lambda machine, attached, error: tuple(attached[-1].events))


def run_case(program_name, config_name, policy_name, seed,
             fault=None, max_cycles=None):
    """Run one case and return its :class:`CaseResult`.

    Deterministic in its arguments: the seed fixes the program's
    internal randomness, the schedule policy's, and — when ``fault`` is
    given — the fault plan's entire decision stream.  ``max_cycles``
    overrides the program's budget (the broken-fault self-tests use a
    small budget so a deliberate livelock fails fast).
    """
    instruments = faulted(fault, seed, [HistoryRecorder, CycleProfiler])
    program = make_program(program_name, seed=seed)
    config = build_config(config_name, program)
    if not program.supports(config):
        return CaseResult(program_name, config_name, policy_name, seed,
                          skipped=True, fault=fault)
    policy = make_policy(policy_name, seed=seed)
    machine, attached, error = program.run(
        config, max_cycles or program.max_cycles, policy, instruments,
        judge=Run)
    *injector, recorder, profiler = attached
    history = recorder.history
    violations, error = collect_violations(
        program, machine, history, profiler, error, fault)
    return CaseResult(
        program_name, config_name, policy_name, seed,
        violations=violations,
        n_committed=len(history),
        commit_cpus=tuple(r.cpu for r in history.committed),
        error=str(error) if error else None,
        fault=fault,
        n_injections=injector[0].n_injections if injector else 0,
        fired=tuple(injector[0].plan.fired) if injector else (),
        schedule=(policy.schedule
                  if violations and isinstance(policy, RecordingPolicy)
                  else b""),
        n_steps=machine.stats.get("engine.steps"),
        max_cycles=max_cycles,
    )


def case_spec(program_name, config_name, policy_name, seed, fault=None):
    """The picklable :class:`CaseSpec` for one fuzz/chaos case.

    Carries exactly the case's name (see :func:`case_name`), so a
    campaign can be sharded across processes without changing any
    result — each worker re-derives everything from the name.
    """
    return CaseSpec(
        runner="repro.check.fuzz:run_case",
        name=case_name(program_name, config_name, policy_name, seed, fault),
        args=(program_name, config_name, policy_name, seed),
        kwargs=((("fault", fault),) if fault is not None else ()))


def case_failure(spec, message):
    """Classify a crashed, hung, or raising case as a ``run-failure``.

    This is the campaign boundary: :func:`run_case` itself only handles
    :class:`ReproError` (anything else is a harness or program bug), and
    here that bug becomes one failed :class:`CaseResult` instead of
    sinking the whole matrix.
    """
    program_name, config_name, policy_name, seed = spec.args
    return CaseResult(
        program_name, config_name, policy_name, seed,
        violations=[OracleViolation("run-failure", message)],
        error=message, fault=dict(spec.kwargs).get("fault"))


def enumerate_sweep(programs=None, configs=None, policies=POLICIES,
                    seeds=3, fault=None, timing_seeds=1):
    """Yield the sweep's :class:`CaseSpec` tuples in canonical order."""
    programs = list(programs) if programs else sorted(PROGRAMS)
    configs = list(configs) if configs else list(CONFIGS)
    for program_name in programs:
        for config_name in configs:
            depth = seeds if config_name in FAST_CONFIGS else min(
                seeds, timing_seeds)
            for policy_name in policies:
                for seed in range(1, depth + 1):
                    yield case_spec(program_name, config_name,
                                    policy_name, seed, fault=fault)


def enumerate_chaos(faults=None, programs=None, configs=None, seeds=2):
    """Yield the chaos matrix's :class:`CaseSpec` tuples in order."""
    faults = list(faults) if faults else list(CHAOS_FAULTS)
    programs = list(programs) if programs else sorted(PROGRAMS)
    configs = list(configs) if configs else list(FAST_CONFIGS)
    for fault in faults:
        for program_name in programs:
            for config_name in configs:
                for seed in range(1, seeds + 1):
                    yield case_spec(program_name, config_name, "det",
                                    seed, fault=fault)


def sweep(programs=None, configs=None, policies=POLICIES, seeds=3,
          fault=None, timing_seeds=1, report=None, jobs=1, timeout=None):
    """The full product sweep; returns a list of :class:`CaseResult`.

    ``seeds`` counts per (program, config, policy); timing configs
    (cycle accounting over the same semantics) get ``timing_seeds``.
    ``report``, if given, is called with each finished
    :class:`CaseResult` (progress streaming, in canonical order).
    ``jobs`` fans the campaign out across worker processes — every case
    is a pure function of its name, so the result list is identical to
    the serial one.  ``timeout`` bounds each case in
    seconds; a case that exceeds it (or crashes its worker) yields a
    ``run-failure`` result instead of aborting the campaign.
    """
    return run_campaign(
        enumerate_sweep(programs=programs, configs=configs,
                        policies=policies, seeds=seeds, fault=fault,
                        timing_seeds=timing_seeds),
        jobs=jobs, timeout=timeout, report=report,
        failure_result=case_failure)


def chaos_sweep(faults=None, programs=None, configs=None, seeds=2,
                report=None, jobs=1, timeout=None):
    """The chaos matrix: fault × program × config × seed, det schedule.

    Defaults to the recoverable :data:`CHAOS_FAULTS` over the fast
    configs — the acceptance bar is *zero* oracle violations.  The
    schedule policy is pinned to ``det``, so a failing case replays
    from the empty deviation list under its fault and seed.  ``jobs`` and
    ``timeout`` behave as in :func:`sweep`.
    """
    return run_campaign(
        enumerate_chaos(faults=faults, programs=programs,
                        configs=configs, seeds=seeds),
        jobs=jobs, timeout=timeout, report=report,
        failure_result=case_failure)


def injection_totals(results):
    """Per-fault injection counts over a chaos sweep's results.

    A kind whose total is zero never actually perturbed a run — its
    matrix column proves nothing — so the CLI treats that as a failure.
    """
    totals = {}
    for result in results:
        if result.fault is None or result.skipped:
            continue
        totals[result.fault] = (
            totals.get(result.fault, 0) + result.n_injections)
    return totals


def shrink(failure):
    """Shrink a failure to a 1-minimal deviation list.

    ``failure`` is a failing :class:`CaseResult` or explorer
    :class:`~repro.check.explore.ScheduleVerdict`.  After the empty
    list, runs ddmin (Zeller and Hildebrandt, TSE 2002) on the failure's
    deviations: remove chunks of them, halving the chunk size down to
    single deviations and repeating that pass until no removal keeps
    the failure.  Every trial replays through
    :func:`repro.check.explore.replay` and counts only if the replay
    fails under one of the failure's own oracles.  Returns
    ``(deviations, verdict)``: the shrunk list and its replay's verdict,
    or the full list and None if even it does not reproduce the failure.
    """
    from repro.check.explore import replay

    oracles = {violation.oracle for violation in failure.violations}

    def reproduce(deviations):
        verdict = replay(failure.program, failure.config, deviations,
                         fault=failure.fault, seed=failure.seed)
        if any(v.oracle in oracles for v in verdict.violations):
            return verdict
        return None

    # The empty list first: most failures need no deviation, and a
    # livelock's full list forces millions of steps.
    verdict = reproduce([])
    if verdict is not None:
        return [], verdict
    deviations = list(failure.deviations)
    if deviations:
        verdict = reproduce(deviations)
    if verdict is None:
        return deviations, None
    chunk = len(deviations) // 2
    while chunk:
        removed = False
        start = 0
        while start < len(deviations):
            trial = deviations[:start] + deviations[start + chunk:]
            attempt = reproduce(trial)
            if attempt is None:
                start += chunk
            else:
                deviations, verdict, removed = trial, attempt, True
        if chunk > 1:
            chunk //= 2
        elif not removed:
            break
    return deviations, verdict


def summarize(results):
    """(n_run, n_skipped, failures) over a sweep's results."""
    failures = [r for r in results if r.failed]
    n_skipped = sum(1 for r in results if r.skipped)
    n_run = len(results) - n_skipped
    return n_run, n_skipped, failures
