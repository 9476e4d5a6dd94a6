"""Correctness checking: histories, oracles, adversarial programs, fuzz.

See ``docs/checking.md``.  Entry points:

* :class:`~repro.check.history.HistoryRecorder` — record a run's
  transactional history from a live machine.
* :func:`~repro.check.oracles.check_serializability` /
  :func:`~repro.check.oracles.check_lost_wakeups` — the oracles.
* :func:`~repro.check.fuzz.run_case` / :func:`~repro.check.fuzz.sweep` —
  the schedule-exploration fuzzer (CLI: ``python -m repro check``).
* :func:`~repro.check.fuzz.shrink` — shrink any fuzz or explorer failure
  to a 1-minimal deviation list (CLI: ``python -m repro explore
  --replay``).
"""

from repro.check.history import History, HistoryRecorder, TxRecord
from repro.check.oracles import (
    OracleViolation,
    check_exact_count,
    check_invariant,
    check_lost_wakeups,
    check_serializability,
    find_cycle,
    precedence_graph,
)
from repro.check.programs import PROGRAMS, CheckProgram, make_program
from repro.check.fuzz import (
    CONFIGS,
    CaseResult,
    chaos_sweep,
    run_case,
    shrink,
    summarize,
    sweep,
)

__all__ = [
    "CONFIGS",
    "CaseResult",
    "CheckProgram",
    "History",
    "HistoryRecorder",
    "OracleViolation",
    "PROGRAMS",
    "TxRecord",
    "check_exact_count",
    "check_invariant",
    "check_lost_wakeups",
    "chaos_sweep",
    "check_serializability",
    "find_cycle",
    "make_program",
    "precedence_graph",
    "run_case",
    "shrink",
    "summarize",
    "sweep",
]
