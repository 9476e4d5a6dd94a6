"""The conformance campaign: simulator vs. reference semantics, at scale.

Every unit is a search unit of :mod:`repro.check.explore`, sharded,
classified on a crash or hang and judged into
:class:`~repro.check.explore.ScheduleVerdict` lists like every
check/chaos/explore unit:

* a **replay cell** is one ``(program, config, seed)`` ``det`` case,
  judged by the oracle battery that ends with the differential replay
  (:func:`repro.spec.replay.check_conformance`): a clean cell is
  equivalent to an atomic, instantaneous serial execution;
* a **drain** exhausts a litmus program's schedules on one lazy config
  within :data:`LITMUS_DEPTHS`, and :func:`gate_drain` requires its
  final outcomes to *equal* the spec-admissible set
  (:func:`repro.spec.outcomes.spec_outcomes`): an extra outcome is a
  serializability hole, a missing one lost schedule coverage.

``python -m repro conform`` drives both matrices.
"""

from __future__ import annotations

from repro.check.explore import ScheduleVerdict, search_spec
from repro.check.fuzz import CONFIGS, FAST_CONFIGS
from repro.check.oracles import OracleViolation
from repro.check.programs import PROGRAMS
from repro.common.params import LAZY
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


def conform_specs(programs=None, configs=None, seeds=1, litmus=True,
                  cells=True):
    """The campaign's search units, in canonical order.

    First a drain per lazy config and litmus program (the explorer
    prunes only under lazy detection, so only there is a drain
    exhaustive at litmus cost), then the replay cells, one ``det`` case
    per program, config and seed."""
    configs = list(configs) if configs else list(CONFORM_CONFIGS)
    specs = []
    if litmus:
        specs += [search_spec(name, config, preemption_bound=None,
                              max_depth=LITMUS_DEPTHS[name])
                  for config in configs
                  if CONFIGS[config].get("detection", LAZY) == LAZY
                  for name in programs or sorted(LITMUS_DEPTHS)
                  if name in LITMUS_DEPTHS]
    if cells:
        specs += [search_spec(name, config, seed=seed, policy="det")
                  for name in programs or sorted(PROGRAMS)
                  for config in configs
                  for seed in range(1, seeds + 1)]
    return specs


def gate_drain(report):
    """The outcome-set gate: drain ``report``'s failing verdict, or None.

    The ``conformance`` verdict has one problem line per fault found: a
    truncated drain, an outcome outside the spec-admissible set, an
    admissible outcome never observed.  A replay cell, or a unit that
    failed or was skipped, passes (its own verdicts judge it)."""
    if report.policy or report.error or report.skipped:
        return None
    outcomes = {v.outcome for v in report.verdicts if v.error is None}
    admissible = spec_outcomes(report.program, seed=report.seed)
    problems = ["drain truncated; not exhaustive"] if report.truncated else []
    problems += [f"outcome outside the admissible set: {o!r}"
                 for o in sorted(outcomes - admissible, key=repr)]
    problems += [f"admissible outcome never observed: {o!r}"
                 for o in sorted(admissible - outcomes, key=repr)]
    if not problems:
        return None
    where = f"drain {report.program}:{report.config}"
    return ScheduleVerdict(
        report.program, report.config, seed=report.seed,
        violations=[OracleViolation("conformance", f"{where}: {problem}")
                    for problem in problems])
