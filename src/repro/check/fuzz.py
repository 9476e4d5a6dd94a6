"""Schedule-exploration fuzzing: sweep seeds × configs × policies.

The driver runs the adversarial programs (:mod:`repro.check.programs`)
on small machines spanning the paper's design space — lazy/eager
detection, write-buffer/undo-log versioning, multi-tracking/associativity
nesting, functional and timing (simple and MSI) memory models — under the
schedule policies of :mod:`repro.sim.schedule`, and checks every run with
the oracles of :mod:`repro.check.oracles`.

A case is an explorer node whose policy samples instead of being
forced (:func:`repro.check.explore.explore` with ``policy=``), named
``[fault:]program:config:policy:seed`` and a pure function of it.  A
randomized policy records its choices
(:class:`~repro.sim.schedule.RecordingPolicy`), so any failure is an
explorer *deviation list* that :func:`shrink` minimises and every
failure prints as ``python -m repro explore --replay
[fault:]program:config:deviations --seed S``.

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

from repro.common.params import (
    EAGER,
    MULTI_TRACKING,
    UNDO_LOG,
    functional_config,
)
from repro.faults import FAULT_KINDS, FAULT_NAMES, FaultInjector, make_plan
from repro.harness.parallel import run_campaign

from repro.check.oracles import (
    OracleViolation,
    check_cycle_conservation,
    check_fault_quiescence,
    check_lost_wakeups,
    check_serializability,
)
from repro.check.programs import PROGRAMS
from repro.spec.replay import check_conformance

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
    oracle battery and cycle conservation over ``profiler``'s books.
    Every run, sampled, enumerated or replayed, goes through the one
    node runner (:func:`repro.check.explore.run_node`) and is judged by
    it.  Returns ``(violations, error)`` — ``error`` may have been
    raised by ``program.verify``.
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


def run_case(program_name, config_name, policy_name, seed,
             fault=None, max_cycles=None):
    """The verdict of one sampled case, a one-run search.

    The case is ``explore(..., policy=policy_name)``, named
    ``[fault:]program:config:policy:seed`` and deterministic in it: the
    seed fixes the program's internal randomness, the policy's, and the
    fault plan's decisions.  ``max_cycles`` overrides the program's
    budget (the broken-fault self-tests use a small budget so a
    deliberate livelock fails fast).
    """
    from repro.check.explore import explore

    (verdict,) = explore(program_name, config_name, fault=fault, seed=seed,
                         policy=policy_name, max_cycles=max_cycles).verdicts
    return verdict


def sweep(faults=(None,), programs=None, configs=None, policies=POLICIES,
          seeds=3, timing_seeds=1, report=None, jobs=1, timeout=None):
    """Run a sweep's cases, one-run searches; returns their verdicts.

    The cases run in canonical order (fault, program, config, policy,
    seed); timing configs get ``timing_seeds`` seeds, the others
    ``seeds``.  ``report``, if given, sees each verdict in that order.
    ``jobs`` fans the cases out across worker processes without
    changing a verdict.  A case over ``timeout`` seconds, or one that
    crashes its worker, yields a ``run-failure`` verdict
    (:func:`repro.check.explore.search_failure`).
    """
    from repro.check.explore import search_failure, search_spec

    def report_verdicts(out):
        for verdict in out.verdicts:
            report(verdict)

    programs = list(programs) if programs else sorted(PROGRAMS)
    configs = list(configs) if configs else list(CONFIGS)
    specs = [search_spec(program_name, config_name, fault=fault, seed=seed,
                         policy=policy_name)
             for fault in faults
             for program_name in programs
             for config_name in configs
             for policy_name in policies
             for seed in range(1, 1 + (seeds if config_name in FAST_CONFIGS
                                       else min(seeds, timing_seeds)))]
    reports = run_campaign(
        specs, jobs=jobs, timeout=timeout, failure_result=search_failure,
        report=report_verdicts if report is not None else None)
    return [verdict for out in reports for verdict in out.verdicts]


def injection_totals(results):
    """Per-fault injection counts over a chaos sweep's results.

    A kind whose total is zero never actually perturbed a run — its
    matrix column proves nothing — so the CLI treats that as a failure.
    """
    totals = {}
    for result in results:
        if result.fault is not None:
            totals[result.fault] = (
                totals.get(result.fault, 0) + result.n_injections)
    return totals


def shrink(failure):
    """Shrink a failure to a 1-minimal deviation list.

    ``failure`` is a failing
    :class:`~repro.check.explore.ScheduleVerdict`, sampled or explored.
    After the empty
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
    """(n_run, n_skipped, failures) over a sweep's verdicts."""
    failures = [r for r in results if r.failed]
    n_skipped = sum(1 for r in results if r.skipped)
    n_run = len(results) - n_skipped
    return n_run, n_skipped, failures
