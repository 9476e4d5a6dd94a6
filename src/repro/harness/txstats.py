"""Per-transaction character statistics (read/write-set sizes, lengths).

The paper's implementation argument leans on the common-case transaction
profile — "transactions with a few hundred instructions are common"
(§6.2), 2-3 nesting levels (§6.3.3).  This collector records, for every
commit, the transaction's kind, nesting level, read-/write-set sizes (in
tracking units) and duration in cycles, so workloads can be checked
against those assumptions.  It is a subscriber to the machine's
``commit`` event (:mod:`repro.obs.observer`), which carries the
committed level's set sizes and start cycle.

Usage::

    collector = TxStatsCollector(machine)
    ... run ...
    print(format_tx_character({"mp3d": collector.summary()}))
    collector.detach()
"""

from __future__ import annotations

import dataclasses

from repro.harness.report import format_table
from repro.obs.observer import Observer


@dataclasses.dataclass(frozen=True)
class TxRecord:
    """One committed transaction."""

    cpu: int
    kind: str        # outer | closed | open
    level: int
    read_units: int
    write_units: int
    duration: int    # cycles from xbegin to xcommit


@dataclasses.dataclass
class TxSummary:
    count: int
    mean_reads: float
    max_reads: int
    mean_writes: float
    max_writes: int
    mean_duration: float
    max_duration: int
    max_level: int


class TxStatsCollector(Observer):
    """Records a :class:`TxRecord` per commit until detached."""

    def __init__(self, machine):
        self.machine = machine
        self.records = []
        machine.observe(self)

    def on_commit(self, cpu_id, result, level, began_at, reads, writes):
        if result.kind != "flattened":
            self.records.append(TxRecord(
                cpu=cpu_id,
                kind=result.kind,
                level=level,
                read_units=reads,
                write_units=writes,
                duration=self.machine.now - began_at,
            ))


    # ------------------------------------------------------------------

    def of_kind(self, kind):
        return [r for r in self.records if r.kind == kind]

    def summary(self, kind=None):
        """Aggregate statistics, optionally for one commit kind."""
        records = self.records if kind is None else self.of_kind(kind)
        if not records:
            return TxSummary(0, 0.0, 0, 0.0, 0, 0.0, 0, 0)
        n = len(records)
        return TxSummary(
            count=n,
            mean_reads=sum(r.read_units for r in records) / n,
            max_reads=max(r.read_units for r in records),
            mean_writes=sum(r.write_units for r in records) / n,
            max_writes=max(r.write_units for r in records),
            mean_duration=sum(r.duration for r in records) / n,
            max_duration=max(r.duration for r in records),
            max_level=max(r.level for r in records),
        )


def format_tx_character(named_summaries,
                        title="transaction character (per commit)"):
    """Render summaries — one row per (workload, kind)."""
    rows = []
    for name, summary in named_summaries:
        rows.append((
            name,
            summary.count,
            f"{summary.mean_reads:.1f}/{summary.max_reads}",
            f"{summary.mean_writes:.1f}/{summary.max_writes}",
            f"{summary.mean_duration:.0f}/{summary.max_duration}",
            summary.max_level,
        ))
    return format_table(
        ["run", "commits", "reads avg/max", "writes avg/max",
         "cycles avg/max", "max level"],
        rows, title=title)
