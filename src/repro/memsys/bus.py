"""The split-transaction system bus.

The paper's machine connects the private cache hierarchies over a 16-byte
split-transaction bus.  We model occupancy and arbitration: a requester
asks for the bus at cycle ``now`` and is granted the first free slot, then
holds it for the transfer duration.  Contention therefore shows up as
increased miss and commit latencies exactly where the paper's evaluation
sees it (commit-token arbitration, write-set broadcast).
"""

from __future__ import annotations


class Bus:
    """Single shared bus with FCFS arbitration."""

    #: Snapshot state (repro.sim.snapshot): occupancy and the counts
    #: not yet flushed into the stats tree.
    _state = ("_busy_until", "n_transactions", "n_busy", "n_wait")

    def __init__(self, config, stats):
        self._config = config
        self._stats = stats.scope("bus")
        self._busy_until = 0
        # acquire() runs per cache miss and per commit broadcast; bind
        # the arbitration constants once and count in plain ints, which
        # :meth:`flush_stats` folds into the stats tree at run end.
        self._arbitration = config.bus_arbitration
        self._line_cycles = config.line_transfer_cycles
        self.n_transactions = 0
        self.n_busy = 0
        self.n_wait = 0

    def flush_stats(self):
        """Fold the counts into the stats tree and reset them.  A bus
        that carried a transaction since the last flush grows all three
        keys, zero waits included, as per-transaction ``add`` calls
        would."""
        if self.n_transactions:
            stats = self._stats
            stats.add("transactions", self.n_transactions)
            stats.add("busy_cycles", self.n_busy)
            stats.add("wait_cycles", self.n_wait)
            self.n_transactions = self.n_busy = self.n_wait = 0

    def acquire(self, now, hold_cycles):
        """Request the bus at ``now`` for ``hold_cycles``.

        Returns the cycle at which the transfer *completes*.  Arbitration
        itself costs ``bus_arbitration`` cycles, overlapped with waiting
        for the bus to free.
        """
        grant = now + self._arbitration
        busy = self._busy_until
        if busy > grant:
            grant = busy
        done = grant + hold_cycles
        self._busy_until = done
        self.n_transactions += 1
        self.n_busy += hold_cycles
        self.n_wait += grant - now
        return done

    def line_transfer(self, now):
        """Acquire the bus for one cache-line transfer."""
        return self.acquire(now, self._line_cycles)

