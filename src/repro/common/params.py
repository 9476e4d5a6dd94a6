"""System parameters for the simulated chip-multiprocessor.

The defaults reproduce the configuration evaluated in Section 7 of the
paper: up to 16 single-issue cores (CPI = 1 for non-memory instructions),
private 32 KB / 1-cycle L1 caches, private 512 KB / 12-cycle L2 caches, a
16-byte split-transaction bus, an HTM with a write-buffer for speculative
state, lazy (commit-time) conflict detection, continuous transactional
execution, and the associativity nesting scheme with lazy merging.
"""

from __future__ import annotations

import dataclasses

from repro.common.errors import ConfigError

#: Architectural word size in bytes.  All simulated addresses are
#: word-aligned; the memory image maps word addresses to values.
WORD_SIZE = 4

#: Versioning policies.
WRITE_BUFFER = "write_buffer"
UNDO_LOG = "undo_log"

#: Conflict-detection policies.
LAZY = "lazy"
EAGER = "eager"

#: Nesting cache schemes (paper Figure 4).
MULTI_TRACKING = "multi_tracking"
ASSOCIATIVITY = "associativity"

#: Tracking granularities for read-/write-sets.
LINE = "line"
WORD = "word"

#: Eager-mode conflict resolution policies.  ``requester_wins`` is
#: livelock-prone under symmetric contention (two transactions can kill
#: each other forever), which is why LogTM-style systems stall the
#: requester; ``requester_stalls`` (older transaction wins, bounded
#: stall, conservative self-abort) is the default.
REQUESTER_WINS = "requester_wins"   # the accessing CPU violates the owner
REQUESTER_STALLS = "requester_stalls"  # LogTM-style stall, abort on deadlock


@dataclasses.dataclass
class SystemConfig:
    """Complete description of one simulated machine.

    Instances are immutable in spirit: build one per experiment and do not
    mutate it once a :class:`~repro.sim.engine.Machine` has been created.
    """

    n_cpus: int = 8

    # --- memory hierarchy -------------------------------------------------
    line_size: int = 32            # bytes per cache line
    l1_size: int = 32 * 1024       # bytes
    l1_assoc: int = 4
    l1_latency: int = 1            # cycles
    l2_size: int = 512 * 1024      # bytes
    l2_assoc: int = 8
    l2_latency: int = 12           # cycles
    mem_latency: int = 100         # cycles
    bus_width: int = 16            # bytes transferred per cycle
    bus_arbitration: int = 3       # cycles to win the bus

    #: If False, use a flat 1-cycle memory model (functional testing).
    timing: bool = True

    #: Coherence timing model: "simple" (misses to memory, commit
    #: broadcasts invalidate) or "msi" (cache-to-cache transfers,
    #: upgrades, writebacks — see repro.memsys.coherence).
    coherence: str = "simple"

    #: Double-buffered commit (paper §6.3.3): the CPU proceeds into its
    #: next transaction while the commit broadcast drains on the bus.
    double_buffering: bool = False

    # --- HTM policies -----------------------------------------------------
    versioning: str = WRITE_BUFFER
    detection: str = LAZY
    nesting_scheme: str = ASSOCIATIVITY
    granularity: str = LINE
    eager_policy: str = REQUESTER_STALLS
    max_nesting: int = 4           # hardware nesting depth (paper uses 3)

    #: Flatten all nested transactions into the outermost one, like the
    #: conventional HTM systems the paper compares against.
    flatten: bool = False

    #: Model the cost of the lazy read-/write-set merge at closed-nested
    #: commits (cycles charged per merged line when the merge is forced).
    merge_cycles_per_line: int = 1

    #: Cycles per undo-log entry processed during a rollback, and per
    #: log-search step on an open-nested commit overwrite (paper Section
    #: 6.3.1 calls this search "expensive").
    undo_cycles_per_entry: int = 2

    # --- OS / runtime costs ------------------------------------------------
    syscall_cycles: int = 200      # simulated cost of a kernel crossing

    def __post_init__(self):
        self.validate()

    # -- derived geometry ---------------------------------------------------

    @property
    def words_per_line(self):
        return self.line_size // WORD_SIZE

    @property
    def l1_sets(self):
        return self.l1_size // (self.line_size * self.l1_assoc)

    @property
    def l2_sets(self):
        return self.l2_size // (self.line_size * self.l2_assoc)

    @property
    def line_transfer_cycles(self):
        """Bus cycles to move one cache line."""
        return max(1, self.line_size // self.bus_width)

    def validate(self):
        """Reject unsupported parameter combinations with a clear message."""
        if self.n_cpus < 1:
            raise ConfigError("n_cpus must be >= 1")
        if self.line_size % WORD_SIZE:
            raise ConfigError("line_size must be a multiple of the word size")
        if self.versioning not in (WRITE_BUFFER, UNDO_LOG):
            raise ConfigError(f"unknown versioning policy {self.versioning!r}")
        if self.detection not in (LAZY, EAGER):
            raise ConfigError(f"unknown detection policy {self.detection!r}")
        if self.nesting_scheme not in (MULTI_TRACKING, ASSOCIATIVITY):
            raise ConfigError(
                f"unknown nesting scheme {self.nesting_scheme!r}")
        if self.granularity not in (LINE, WORD):
            raise ConfigError(f"unknown granularity {self.granularity!r}")
        if self.eager_policy not in (REQUESTER_WINS, REQUESTER_STALLS):
            raise ConfigError(f"unknown eager policy {self.eager_policy!r}")
        if self.versioning == UNDO_LOG and self.detection == LAZY:
            # An undo-log writes shared memory in place; without eager
            # detection other CPUs would read uncommitted data.
            raise ConfigError(
                "undo_log versioning requires eager conflict detection")
        if self.max_nesting < 1:
            raise ConfigError("max_nesting must be >= 1")
        if self.coherence not in ("simple", "msi"):
            raise ConfigError(f"unknown coherence model {self.coherence!r}")
        for field in ("l1_size", "l2_size"):
            size = getattr(self, field)
            if size % self.line_size:
                raise ConfigError(f"{field} must be a multiple of line_size")

    def replace(self, **changes):
        """Return a copy of this configuration with ``changes`` applied."""
        return dataclasses.replace(self, **changes)


def paper_config(**overrides):
    """The Section 7 evaluation machine, optionally with overrides."""
    return SystemConfig(**overrides)


def functional_config(**overrides):
    """A fast machine for semantic tests: flat memory, small caches."""
    defaults = dict(n_cpus=4, timing=False)
    defaults.update(overrides)
    return SystemConfig(**defaults)
