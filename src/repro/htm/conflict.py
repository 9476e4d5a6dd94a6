"""Conflict detection engines: lazy (commit-time) and eager (access-time).

Both engines observe memory traffic and *post violations* to victim CPUs
through a sink callback; delivery to the victim's violation handler is the
engine's job (it models the hardware jump to ``xvhcode``).

* :class:`LazyDetector` — TCC-style, the configuration the paper
  evaluates: conflicts are found when a committing transaction broadcasts
  its write-set; any other CPU whose read-set intersects it is violated at
  every affected nesting level (this sets the ``xvcurrent`` bitmask).

* :class:`EagerDetector` — UTM/LogTM-style: conflicts are found as
  accesses happen, using the coherence protocol.  Two resolution policies:
  ``requester_wins`` (the accessor proceeds, the owner is violated) and
  ``requester_stalls`` (older-timestamp transaction wins; the younger
  requester stalls, and self-aborts if it would have to wait on a
  *validated* transaction or stalls too long).  A validated transaction is
  never violated (paper §6.1).

Both detectors probe the machine-wide reverse
:class:`~repro.htm.rwset.ConflictIndex` — ``unit -> per-CPU level
masks`` — so an access costs O(actual owners of that unit), not
O(n_cpus × nesting levels).  The original full-scan implementations
live in the test suite (``tests/reference.py``) as the differential
reference: both must produce bit-for-bit identical violation streams,
cycle counts, and final memory images.
"""

from __future__ import annotations

import dataclasses

from repro.common.params import LAZY, REQUESTER_WINS


#: Actions an eager check can demand of the requesting CPU.
PROCEED = "proceed"
STALL = "stall"
SELF_ABORT = "self_abort"

#: Retries before a stalling requester conservatively self-aborts
#: (deadlock avoidance).
STALL_LIMIT = 64

#: Shared empty owner table: the indexed detectors' "nobody tracks this
#: unit" answer, probed without allocating.
_NOBODY = {}


@dataclasses.dataclass
class Violation:
    """A conflict posted to a victim."""

    victim: int
    mask: int       # one bit per affected nesting level (bit 0 = level 1)
    addr: int       # conflicting unit address (xvaddr), when known
    source: int     # CPU whose access/commit caused it


class DetectorBase:
    #: Snapshot state (repro.sim.snapshot): lazy detectors are stateless
    #: beyond the shared stats tree.
    _state = ()

    def __init__(self, config, states, stats, index):
        self._config = config
        self._states = states   # list of per-CPU TxState
        self._stats = stats
        self._index = index     # machine-wide ConflictIndex
        self._sink = None
        self._n_posted = stats.counter("conflicts.posted")

    def attach_sink(self, sink):
        """``sink(Violation)`` delivers a violation to a victim CPU."""
        self._sink = sink

    def _post(self, victim, mask, addr, source):
        self._n_posted.add()
        self._sink(Violation(victim=victim, mask=mask, addr=addr,
                             source=source))

    # -- interface -----------------------------------------------------------

    def on_load(self, cpu_id, unit):
        """Check a transactional load; return PROCEED/STALL/SELF_ABORT."""
        return PROCEED

    def on_store(self, cpu_id, unit):
        return PROCEED

    def on_commit(self, cpu_id, written_units):
        """Observe a write-set publication (outermost/open commit, or a
        non-transactional store in a strongly-atomic machine)."""


class LazyDetector(DetectorBase):
    """Commit-time detection through the reverse index.

    Violations are posted victim-major (ascending CPU id), and within a
    victim unit-major (ascending unit address), so a re-invoked handler
    sees each conflicting address in ``xvaddr`` (§4.6) in a fixed order.

    Probes only the units' actual readers.  Posting a violation never
    mutates any read-set (delivery just latches the victim's violation
    registers), so collecting all victims first and posting afterwards
    is observably identical to a full scan that posts as it goes — as
    long as that post order is reproduced exactly.
    """

    def on_commit(self, cpu_id, written_units):
        if not written_units:
            return
        readers = self._index.readers
        per_victim = {}
        for unit in sorted(written_units):
            for victim_id, mask in readers.get(unit, _NOBODY).items():
                if victim_id != cpu_id:
                    per_victim.setdefault(victim_id, []).append((unit, mask))
        for victim_id in sorted(per_victim):
            for unit, mask in per_victim[victim_id]:
                self._post(victim_id, mask, unit, cpu_id)


class EagerDetector(DetectorBase):
    """Access-time detection through the reverse index.

    The overwhelmingly common case — nobody else tracks the unit — is a
    single dictionary miss instead of a sweep over every CPU's sets.
    The index's tables are probed directly (they are public attributes)
    because even one bound-method call per access is measurable here.
    The victim list handed to :meth:`_resolve` must be in ascending
    CPU-id order — resolution can return early, so the order is
    observable.
    """

    _state = ("_stall_counts",)

    def __init__(self, config, states, stats, index):
        super().__init__(config, states, stats, index)
        self._stall_counts = {}
        self._n_stalls = stats.counter("conflicts.stalls")
        self._n_self_aborts = stats.counter("conflicts.self_aborts")
        self._idx_readers = index.readers
        self._idx_writers = index.writers

    def _resolve(self, cpu_id, unit, victims):
        """Decide the fate of an access conflicting with ``victims``
        (list of (victim_id, mask) pairs).

        Even a *winning* requester must stall until its victims have
        actually rolled back: with an undo-log the victim's doomed
        in-place writes are still in memory until then, and reading them
        would leak uncommitted state (the LogTM NACK-until-released
        behaviour).  The access retries and proceeds once the victims'
        conflicting sets are gone.
        """
        me = self._states[cpu_id]
        for victim_id, mask in victims:
            victim = self._states[victim_id]
            if victim.is_validated():
                # A validated transaction can no longer lose (paper §6.1);
                # wait for it to finish, aborting ourselves if we cannot
                # make progress (it might be waiting to run on our data).
                return self._stall_or_self_abort(cpu_id, unit)
            if self._config.eager_policy == REQUESTER_WINS or not me.in_tx():
                # Non-transactional requesters cannot roll back, so they
                # always win under either policy (strong atomicity).
                self._post(victim_id, mask, unit, cpu_id)
                continue
            # requester_stalls: the strictly older transaction wins.
            # Ties (same begin cycle) break by CPU id — the order must be
            # total, or two same-age transactions kill each other forever.
            if (me.timestamp, cpu_id) < (victim.timestamp, victim_id):
                self._post(victim_id, mask, unit, cpu_id)
            else:
                return self._stall_or_self_abort(cpu_id, unit)
        # Violations posted: wait for the victims to finish rolling back.
        return self._stall_or_self_abort(cpu_id, unit)

    def _stall_or_self_abort(self, cpu_id, unit):
        count = self._stall_counts.get(cpu_id, 0) + 1
        self._stall_counts[cpu_id] = count
        if count > STALL_LIMIT:
            self._stall_counts.pop(cpu_id, None)
            self._n_self_aborts.add()
            return SELF_ABORT
        self._n_stalls.add()
        return STALL

    def on_load(self, cpu_id, unit):
        writers = self._idx_writers.get(unit)
        # Fast path: nobody (or only the requester itself) writes the
        # unit — the overwhelmingly common outcome for private data.
        if not writers or (len(writers) == 1 and cpu_id in writers):
            if self._stall_counts:
                self._stall_counts.pop(cpu_id, None)
            return PROCEED
        victims = [(victim_id, writers[victim_id])
                   for victim_id in sorted(writers) if victim_id != cpu_id]
        if not victims:
            if self._stall_counts:
                self._stall_counts.pop(cpu_id, None)
            return PROCEED
        return self._resolve(cpu_id, unit, victims)

    def on_store(self, cpu_id, unit):
        readers = self._idx_readers.get(unit) or _NOBODY
        writers = self._idx_writers.get(unit) or _NOBODY
        if ((not readers or (len(readers) == 1 and cpu_id in readers))
                and (not writers
                     or (len(writers) == 1 and cpu_id in writers))):
            if self._stall_counts:
                self._stall_counts.pop(cpu_id, None)
            return PROCEED
        victims = [
            (victim_id,
             readers.get(victim_id, 0) | writers.get(victim_id, 0))
            for victim_id in sorted(readers.keys() | writers.keys())
            if victim_id != cpu_id
        ]
        if not victims:
            if self._stall_counts:
                self._stall_counts.pop(cpu_id, None)
            return PROCEED
        return self._resolve(cpu_id, unit, victims)

    def on_commit(self, cpu_id, written_units):
        # All conflicts were resolved at access time.  Nothing to do.
        return None


def make_detector(config, states, stats, index):
    """Build the detector selected by ``config.detection``."""
    cls = LazyDetector if config.detection == LAZY else EagerDetector
    return cls(config, states, stats, index)
