"""The conformance campaign: simulator vs. reference semantics, at scale.

Two kinds of cell, both pure functions of small picklable names so the
campaign shards across :class:`~repro.harness.parallel.WorkerPool`
workers exactly like the check/chaos/bench sweeps:

* **Replay cells** (:func:`run_conform_cell`) run one
  ``(program, config, seed)`` case through the ordinary fuzz driver —
  whose oracle battery now ends with the differential replay
  (:func:`repro.spec.replay.check_conformance`) — and report any
  violation.  A clean cell certifies that the simulated execution is
  equivalent to an atomic, instantaneous serial execution of the same
  program.
* **Drain cells** (:func:`run_drain_cell`) exhaustively enumerate a
  litmus program's schedule space on one lazy config with the model
  checker (:func:`repro.check.explore.explore`, unbounded preemptions
  within the program's deviation window) and require the set of
  observed final outcomes to equal — not merely be contained in — the
  spec-admissible set from :func:`repro.spec.outcomes.spec_outcomes`.
  An extra outcome is a serializability hole; a missing one is lost
  schedule coverage.

``python -m repro conform`` drives both matrices.
"""

from __future__ import annotations

from repro.check.explore import explore
from repro.check.fuzz import CONFIGS, FAST_CONFIGS, run_case
from repro.check.programs import PROGRAMS
from repro.common.params import LAZY
from repro.harness.parallel import CaseSpec, run_campaign
from repro.spec.outcomes import spec_outcomes

#: The functional design-space matrix every replay cell sweeps
#: (detection x versioning x nesting).  Timing configs add nothing to a
#: functional-equivalence argument: they would add half again as many
#: cells at about the same cost each (the default replay cells took
#: 0.73 s, all six configs 0.90 s, 2-core x86-64 host, Python 3.11).
CONFORM_CONFIGS = FAST_CONFIGS

#: Deviation-window depth per litmus drain: the deterministic run's
#: step count plus slack, so branching covers the whole program but the
#: enumeration stays litmus-sized.  Measured; a program whose det run
#: grows past its depth fails the drain loudly (missing outcomes).
LITMUS_DEPTHS = {
    "litmus-sb": 48,
    "litmus-mp": 48,
    "litmus-inc": 48,
    "litmus-lb": 48,
    "litmus-corr": 60,
    "litmus-token-handoff": 40,
}


def run_conform_cell(program_name, config_name, seed):
    """One replay cell; returns a picklable summary dict."""
    result = run_case(program_name, config_name, "det", seed)
    return {
        "kind": "cell",
        "name": f"{program_name}:{config_name}:{seed}",
        "skipped": result.skipped,
        "ok": not result.violations,
        "violations": [f"{v.oracle}: {v.detail}"
                       for v in result.violations],
    }


def run_drain_cell(program_name, config_name="lazy-wb-assoc", seed=1,
                   max_depth=None):
    """One litmus drain cell; returns a picklable summary dict."""
    depth = max_depth or LITMUS_DEPTHS[program_name]
    outcomes = set()
    errors = []

    def see(verdict):
        if verdict.error is None:
            outcomes.add(verdict.outcome)
        else:
            errors.append(f"{verdict.deviations}: {verdict.error}")
        if verdict.failed:
            errors.append(
                f"{verdict.deviations}: "
                + "; ".join(f"{v.oracle}: {v.detail}"
                            for v in verdict.violations))

    report = explore(program_name, config_name, seed=seed,
                     preemption_bound=None, max_depth=depth,
                     report=see)
    admissible = spec_outcomes(program_name, seed=seed)
    extra = sorted(outcomes - admissible, key=repr)
    missing = sorted(admissible - outcomes, key=repr)
    problems = list(errors)
    if report.truncated:
        problems.append("drain truncated; not exhaustive")
    problems += [f"outcome outside the admissible set: {o!r}"
                 for o in extra]
    problems += [f"admissible outcome never observed: {o!r}"
                 for o in missing]
    return {
        "kind": "drain",
        "name": f"{program_name}:{config_name}:{seed}",
        "skipped": False,
        "ok": not problems,
        "violations": problems,
        "n_schedules": report.explored,
        "n_outcomes": len(outcomes),
    }


def conform_specs(programs=None, configs=None, seeds=1, litmus=True,
                  cells=True):
    """The campaign's :class:`CaseSpec` list, in canonical order: a
    drain per litmus program and lazy config (the explorer prunes only
    under lazy detection, so only there is a drain exhaustive at litmus
    cost), then the replay cells."""
    programs = list(programs) if programs else sorted(PROGRAMS)
    configs = list(configs) if configs else list(CONFORM_CONFIGS)
    specs = []
    if litmus:
        for config in configs:
            if CONFIGS[config].get("detection", LAZY) != LAZY:
                continue
            for name in programs:
                if name in LITMUS_DEPTHS:
                    specs.append(CaseSpec(
                        runner="repro.spec.conform:run_drain_cell",
                        name=f"drain:{name}:{config}",
                        args=(name, config)))
    if cells:
        for name in programs:
            for config in configs:
                for seed in range(1, seeds + 1):
                    specs.append(CaseSpec(
                        runner="repro.spec.conform:run_conform_cell",
                        name=f"cell:{name}:{config}:{seed}",
                        args=(name, config, seed)))
    return specs


def _failure_result(spec, message):
    return {"kind": "error", "name": spec.name, "skipped": False,
            "ok": False, "violations": [message]}


def conform_sweep(programs=None, configs=None, seeds=1, litmus=True,
                  cells=True, jobs=1, timeout=None, report=None):
    """Run the campaign; returns the summary dicts in canonical order."""
    specs = conform_specs(programs, configs, seeds, litmus=litmus,
                          cells=cells)
    return run_campaign(specs, jobs=jobs, timeout=timeout, report=report,
                        failure_result=_failure_result)


def summarize_conform(results):
    """(n_run, n_skipped, failures) over a sweep's results."""
    failures = [r for r in results if not r["ok"] and not r["skipped"]]
    n_skipped = sum(1 for r in results if r["skipped"])
    return len(results) - n_skipped, n_skipped, failures
