"""Typed word arrays over simulated memory.

All accessors are generator functions: they yield simulated loads/stores
so array traffic participates in caching, conflict detection, and timing.
"""

from __future__ import annotations

from repro.common.errors import MemoryError_
from repro.common.params import WORD_SIZE


class WordArray:
    """A fixed-length array of words in the (shared) address space."""

    def __init__(self, arena, length, initial=0, line_align=True):
        self.length = length
        if isinstance(initial, (list, tuple)):
            if len(initial) != length:
                raise MemoryError_("initializer length mismatch")
            values = list(initial)
        else:
            values = [initial] * length
        self.base = arena.alloc_block(values, line_align=line_align)

    def addr(self, index):
        if not 0 <= index < self.length:
            raise MemoryError_(
                f"array index {index} out of range [0, {self.length})")
        return self.base + index * WORD_SIZE

    # -- transactional accessors ------------------------------------------------

    def get(self, t, index):
        value = yield t.load(self.addr(index))
        return value

    def set(self, t, index, value):
        yield t.store(self.addr(index), value)

    def add(self, t, index, delta):
        """Read-modify-write; returns the new value."""
        addr = self.addr(index)
        value = yield t.load(addr)
        value = value + delta
        yield t.store(addr, value)
        return value


class LineArray(WordArray):
    """A word array placing each element on its own cache line.

    Use this for contended cells (e.g. the mp3d collision pool): with
    line-granularity conflict tracking, packing independent cells into one
    line would make logically disjoint updates conflict (false sharing),
    which changes workload semantics rather than just performance.
    """

    def __init__(self, arena, length, initial=0):
        from repro.common.params import WORD_SIZE

        self.length = length
        words_per_line = arena.config.line_size // WORD_SIZE
        self._stride = words_per_line * WORD_SIZE
        if isinstance(initial, (list, tuple)):
            if len(initial) != length:
                raise MemoryError_("initializer length mismatch")
            values = list(initial)
        else:
            values = [initial] * length
        self.base = arena.alloc(length * words_per_line, line_align=True)
        for i, value in enumerate(values):
            arena.memory.write(self.base + i * self._stride, value)

    def addr(self, index):
        if not 0 <= index < self.length:
            raise MemoryError_(
                f"array index {index} out of range [0, {self.length})")
        return self.base + index * self._stride
