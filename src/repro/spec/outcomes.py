"""Exhaustive enumeration of a program's spec-admissible outcomes.

Under instantaneous-transaction semantics the only scheduling freedom is
the *order of events* (publishing commits and depth-0 singletons), so
the admissible outcome set of a program is exactly the set of final
observations over all interleavings of thread event sequences.  The
enumerator does a depth-first search over "which thread produces the
next event", re-executing the program from scratch for every prefix
(spec runs are microseconds; litmus programs have a handful of events).

This is the gate for the model checker: an exhaustive explorer drain of
a litmus program must produce *exactly* this outcome set — anything
extra is a simulator bug, anything missing is lost schedule coverage.
"""

from __future__ import annotations

from repro.common.params import functional_config
from repro.spec.model import (
    DONE,
    RUNNABLE,
    SpecError,
    build_spec_execution,
)
from repro.spec.replay import freeze

#: Safety valve: an enumeration exploring more prefixes than this is a
#: sign the program is not litmus-sized.
MAX_PREFIXES = 200_000


def spec_outcomes(program_name, seed=1):
    """The frozenset of admissible (frozen) outcomes of a program.

    The spec runs on the default functional config: a config only
    affects event granularity bookkeeping, never the outcome set.
    """
    from repro.check.programs import make_program

    config = functional_config()
    outcomes = set()
    stack = [()]  # prefixes of cpu-id choices still to expand
    explored = 0
    while stack:
        prefix = stack.pop()
        explored += 1
        if explored > MAX_PREFIXES:
            raise SpecError(
                f"{program_name}: outcome enumeration exceeded "
                f"{MAX_PREFIXES} prefixes; not litmus-sized")
        program = make_program(program_name, seed=seed)
        machine, executor = build_spec_execution(program, config)
        # Replay the prefix.
        dead_end = False
        for cpu_id in prefix:
            if executor.step(executor.threads[cpu_id]) not in (
                    "event", "done", "parked"):
                dead_end = True  # pragma: no cover - defensive
                break
        if dead_end:  # pragma: no cover - defensive
            continue
        # Branch over every thread that can act next.
        choices = [cpu_id for cpu_id, thread in executor.threads.items()
                   if thread.status == RUNNABLE]
        if choices:
            stack.extend(prefix + (cpu_id,) for cpu_id in choices)
            continue
        if any(thread.status != DONE and not thread.t.daemon
               for thread in executor.threads.values()):
            outcomes.add(("spec-deadlock", prefix))
            continue
        outcomes.add(freeze(program.outcome(machine)))
    return frozenset(outcomes)
