"""Conflict-detection stress kernel: the bench harness's flagship.

Every simulated step of this workload is designed to hit the conflict
detector as hard as possible, so the run isolates the asymptotic gap
between a full-scan detector (O(n_cpus × nesting levels) per access, the
test suite's ``tests/reference.py``) and the reverse-index detectors
(O(actual owners), usually a single dictionary miss):

* **Deep nesting** — each round opens ``depth + 1`` nested transactions
  (depth 8 with the bench's ``max_nesting=8`` config), so a full-scan
  eager check iterates every victim's full level stack on every access.
* **Store-dominated bursts** — the innermost transaction issues a long
  run of stores; a full-scan eager store checks each victim's read-sets *and*
  write-sets (``levels_touching``), twice the work of a load.
* **Small private footprints** — each thread's burst lands on its own
  few cache lines, so the indexed detectors answer almost every access
  with the nobody-owns-it fast path, and closed-nested commits merge
  only a handful of units (index maintenance stays cheap).
* **One contended line** — a shared accumulator at the innermost level
  keeps the conflict-resolution path honest (real stalls/violations
  happen) and gives :meth:`verify` an end-to-end invariant.

The bench harness pins its cycle count exactly (``detstress-eager-x16``)
and re-runs it under the cycle profiler to close the cycle books.
"""

from __future__ import annotations

from repro.common.errors import ReproError
from repro.mem.array import LineArray, WordArray
from repro.workloads.base import Workload


class DetectionStressKernel(Workload):
    """Deep-nesting, store-heavy conflict-detection stress."""

    name = "detstress"

    #: Deep nesting plus eager detection — the flagship bench machine.
    config_overrides = {"detection": "eager", "max_nesting": 8}

    #: Outer iterations per thread (scaled by ``scale``, min 1).
    rounds = 4
    #: Stores issued inside the innermost transaction per round.
    burst = 160
    #: Nesting depth below the outermost transaction (total levels =
    #: ``depth + 1``; the bench config must allow that much nesting).
    depth = 7
    #: Words in each thread's private array (first ``depth + 1`` are the
    #: per-level touch words, the rest the burst window).
    words = 24

    def setup(self, machine, runtime, arena):
        self.rt = runtime
        self.priv = [WordArray(arena, self.words, line_align=True)
                     for _ in range(self.n_threads)]
        self.accum = LineArray(arena, 1)
        for tid in range(self.n_threads):
            runtime.spawn(self._program, tid, cpu_id=tid)

    def _rounds(self):
        return max(1, int(self.rounds * self.scale))

    def _program(self, t, tid):
        addrs = [self.priv[tid].addr(k) for k in range(self.words)]
        for _ in range(self._rounds()):
            yield from self.rt.atomic(t, self._level, tid, addrs, self.depth)
        return tid

    def _level(self, t, tid, addrs, depth):
        # Touch one word per level so every victim's read/write stack is
        # populated at every nesting level while the bursts run.
        yield t.store(addrs[depth], depth)
        if depth > 0:
            yield from self.rt.atomic(t, self._level, tid, addrs, depth - 1)
        else:
            window = self.words - (self.depth + 1)
            base = self.depth + 1
            for j in range(self.burst):
                yield t.store(addrs[base + j % window], j)
            value = yield from self.accum.get(t, 0)
            yield from self.accum.set(t, 0, value + 1)

    def verify(self, machine):
        got = machine.memory.read(self.accum.addr(0))
        want = self.n_threads * self._rounds()
        if got != want:
            raise ReproError(f"detstress accumulator {got} != {want}")
        for tid in range(self.n_threads):
            for level_word in range(self.depth + 1):
                got = machine.memory.read(self.priv[tid].addr(level_word))
                if got != level_word:
                    raise ReproError(
                        f"detstress thread {tid} level word {level_word} "
                        f"holds {got}")
