"""Hardware transactional memory engine.

Versioning (write-buffer / undo-log), conflict detection (lazy / eager),
nesting cache schemes (multi-tracking / associativity), the commit token,
and the machine-wide :class:`~repro.htm.system.HtmSystem`.
"""

from repro.htm.conflict import (
    PROCEED,
    SELF_ABORT,
    STALL,
    EagerDetector,
    LazyDetector,
    Violation,
    make_detector,
)
from repro.htm.nesting import (
    AssociativityScheme,
    MultiTrackingScheme,
    make_nesting_scheme,
)
from repro.htm.rwset import ConflictIndex, RwSets
from repro.htm.system import (
    ABORTED,
    ACTIVE,
    COMMITTED,
    VALIDATED,
    CommitResult,
    HtmSystem,
    LevelInfo,
    TxState,
)
from repro.htm.token import CommitToken
from repro.htm.versioning import (
    UndoLogVersioning,
    WriteBufferVersioning,
    make_version_manager,
)

__all__ = [
    "ABORTED",
    "ACTIVE",
    "AssociativityScheme",
    "COMMITTED",
    "CommitResult",
    "CommitToken",
    "ConflictIndex",
    "EagerDetector",
    "HtmSystem",
    "LazyDetector",
    "LevelInfo",
    "MultiTrackingScheme",
    "PROCEED",
    "RwSets",
    "SELF_ABORT",
    "STALL",
    "TxState",
    "UndoLogVersioning",
    "VALIDATED",
    "Violation",
    "WriteBufferVersioning",
    "make_detector",
    "make_nesting_scheme",
    "make_version_manager",
]
