"""The paper's HTM instruction set architecture.

Registers and bitmasks (Table 1), the TCB stack layout (Figure 2), the
code registry modelling handler PCs, the hardware dispatch protocol, and
the per-CPU op executor.
"""

from repro.isa.codereg import CodeRegistry
from repro.isa.context import (
    DONE,
    RUNNABLE,
    WAITING,
    Cpu,
    ExecOutcome,
    latency_outcome,
)
from repro.isa.dispatch import (
    HandlerOutcome,
    default_abort_dispatcher,
    default_violation_dispatcher,
)
from repro.isa.state import IsaState, lowest_level_in_mask
from repro.isa import tcb

__all__ = [
    "CodeRegistry",
    "Cpu",
    "DONE",
    "ExecOutcome",
    "HandlerOutcome",
    "IsaState",
    "RUNNABLE",
    "WAITING",
    "default_abort_dispatcher",
    "default_violation_dispatcher",
    "latency_outcome",
    "lowest_level_in_mask",
    "tcb",
]
