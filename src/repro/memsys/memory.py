"""The simulated physical memory image.

Values are stored per word address.  The image is purely functional state;
all timing lives in the cache/bus models.  Unwritten words read as 0, like
zero-filled physical pages.
"""

from __future__ import annotations

from repro.common.errors import MemoryError_
from repro.common.params import WORD_SIZE


class MemoryImage:
    """Word-addressed backing store for the whole machine.

    ``read``/``write`` back every simulated memory access, so the
    alignment guard is inlined rather than calling
    :func:`~repro.common.addr.check_word_aligned`.
    """

    #: Snapshot state (repro.sim.snapshot).
    _state = ("_words",)

    def __init__(self):
        self._words = {}

    def read(self, addr):
        """Read the word at ``addr`` (0 if never written)."""
        if addr % WORD_SIZE:
            raise MemoryError_(f"unaligned word access at {addr:#x}")
        return self._words.get(addr, 0)

    def write(self, addr, value):
        """Write ``value`` to the word at ``addr``."""
        if addr % WORD_SIZE:
            raise MemoryError_(f"unaligned word access at {addr:#x}")
        self._words[addr] = value

    def read_block(self, addr, n_words):
        """Read ``n_words`` consecutive words starting at ``addr``."""
        from repro.common.params import WORD_SIZE

        return [self.read(addr + i * WORD_SIZE) for i in range(n_words)]

    def write_block(self, addr, values):
        """Write consecutive words starting at ``addr``."""
        from repro.common.params import WORD_SIZE

        for i, value in enumerate(values):
            self.write(addr + i * WORD_SIZE, value)

    def snapshot(self):
        """A plain-dict copy of all written words (for checking invariants)."""
        return dict(self._words)

    def __len__(self):
        return len(self._words)
