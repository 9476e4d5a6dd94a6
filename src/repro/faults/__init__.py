"""Deterministic fault injection over the HTM simulator.

Split in two halves:

* :mod:`repro.faults.plan` — :class:`FaultPlan`: the pure, seeded
  decision stream (*what* fires, and every random choice).  Replayable
  from ``(fault, seed)``.
* :mod:`repro.faults.injector` — :class:`FaultInjector`: wires a plan
  into a live :class:`~repro.sim.engine.Machine` by shadowing a few of
  its methods with instance attributes; ``detach()`` deletes the
  shadows, restoring the unpatched machine exactly.

See ``docs/faults.md`` for the taxonomy and the chaos-matrix workflow
(``python -m repro chaos``).
"""

from repro.faults.injector import FaultInjector, attach_fault
from repro.faults.plan import (
    ALL,
    FAULT_KINDS,
    FAULT_NAMES,
    LEGACY_KINDS,
    FaultPlan,
    make_plan,
)

__all__ = [
    "ALL",
    "FAULT_KINDS",
    "FAULT_NAMES",
    "LEGACY_KINDS",
    "FaultInjector",
    "FaultPlan",
    "attach_fault",
    "make_plan",
]
