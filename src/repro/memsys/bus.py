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

    #: Snapshot state (repro.sim.snapshot): occupancy is the bus's only
    #: non-counter state.
    _state = ("_busy_until",)

    def __init__(self, config, stats):
        self._config = config
        self._stats = stats.scope("bus")
        self._busy_until = 0
        # acquire() runs per cache miss and per commit broadcast; bind
        # the counters and arbitration constants once.
        self._arbitration = config.bus_arbitration
        self._line_cycles = config.line_transfer_cycles
        self._n_transactions = self._stats.counter("transactions")
        self._n_busy = self._stats.counter("busy_cycles")
        self._n_wait = self._stats.counter("wait_cycles")

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
        self._n_transactions.add()
        self._n_busy.add(hold_cycles)
        self._n_wait.add(grant - now)
        return done

    def line_transfer(self, now):
        """Acquire the bus for one cache-line transfer."""
        return self.acquire(now, self._line_cycles)

