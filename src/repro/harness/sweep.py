"""Speedup curves over CPU counts.

The paper reports single 8-CPU points (with sequential-relative
annotations); a downstream user of this simulator will want the whole
curve.  ``speedup_curve`` runs a workload at several CPU counts against
an explicit 1-CPU sequential baseline.  The points run serially,
in-process: the workload factory is a closure, and no figure runs a
curve wide enough to pay for worker processes.
"""

from __future__ import annotations

import dataclasses

from repro.common.params import paper_config
from repro.harness.report import format_table


@dataclasses.dataclass
class SpeedupPoint:
    """One curve point.  ``n_cpus`` is the requested thread count (the
    point's label); ``actual_cpus`` is what the machine really had —
    they differ when the workload's ``min_cpus()`` floor kicks in."""

    n_cpus: int
    cycles: int
    speedup: float
    actual_cpus: int = None

    def __post_init__(self):
        if self.actual_cpus is None:
            self.actual_cpus = self.n_cpus


def _run_speedup_point(workload_factory, n, overrides, max_cycles):
    workload = workload_factory(n)
    actual_cpus = max(n, workload.min_cpus())
    machine = workload.run(
        paper_config(n_cpus=actual_cpus, **overrides),
        max_cycles=max_cycles)
    return actual_cpus, machine.stats.get("cycles")


def speedup_curve(workload_factory, cpu_counts=(1, 2, 4, 8, 16),
                  config_overrides=None, max_cycles=2_000_000_000):
    """Speedup over 1-CPU sequential execution at each CPU count.

    ``workload_factory(n_threads)`` builds a fresh workload; the total
    work is fixed (the workload divides it among threads), so this is a
    strong-scaling curve.  The baseline is always an explicit
    ``workload_factory(1)`` run — even when 1 is not in ``cpu_counts``
    — so every ``speedup`` really is "vs 1 CPU", and each point records
    the CPU count the machine actually had (``actual_cpus``), which the
    workload's ``min_cpus()`` floor may raise above the label.
    """
    overrides = dict(config_overrides or {})
    counts = [1] + [n for n in cpu_counts if n != 1]
    by_count = {n: _run_speedup_point(workload_factory, n, overrides,
                                      max_cycles)
                for n in counts}
    base_cycles = by_count[1][1]
    return [SpeedupPoint(n_cpus=n, cycles=by_count[n][1],
                         speedup=base_cycles / by_count[n][1],
                         actual_cpus=by_count[n][0])
            for n in cpu_counts]


def format_speedup_curve(points, title):
    rows = [(p.n_cpus
             if p.actual_cpus == p.n_cpus
             else f"{p.n_cpus} (ran on {p.actual_cpus})",
             p.cycles, f"{p.speedup:.2f}x") for p in points]
    return format_table(["CPUs", "cycles", "speedup vs 1 CPU"], rows,
                        title=title)
