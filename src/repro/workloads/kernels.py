"""Scientific-kernel workloads (paper Section 7.1, Figure 5).

The paper speculatively parallelizes loops from SPECcpu2000 (``swim``,
``tomcatv``), SPLASH/SPLASH-2 (``barnes``, ``fmm``, ``mp3d``, ``water``)
and Java Grande (``moldyn``), then applies closed nesting "mainly to
update reduction variables within larger transactions".  We reproduce the
*transactional structure* of each benchmark with a parameterized kernel:

* an **outer transaction** per loop chunk doing private compute (each
  thread owns a slice of the grid/particle arrays, so this phase never
  conflicts) and, for the tree codes, read-only traversal of shared data;
* zero or more **collision updates**: read-modify-writes to randomly
  chosen *shared* cells mid-transaction (the mp3d particle/cell pattern —
  the dominant conflict source there);
* a **reduction update** near the end of the outer transaction: a small
  closed-nested transaction adding into the shared reduction variables
  (swim's ``ucheck/vcheck/pcheck``, tomcatv's residuals, water/moldyn's
  energy terms).

With nesting disabled (``config.flatten``) the same program degrades to
exactly the conventional-HTM flat execution the paper compares against.

Every kernel carries a serializability invariant: each reduction cell
must end at the total number of outer transactions, and the collision
cells must sum to the total number of collision updates.  Every benchmark
run is therefore also a correctness check.

The per-kernel parameters were chosen to mirror each benchmark's
qualitative conflict profile (e.g. mp3d = many collision updates over a
small cell pool; barnes/fmm = large read-only shared tree, rare writes),
not its instruction mix; see DESIGN.md for the substitution argument.
"""

from __future__ import annotations

import random

from repro.common.errors import ReproError
from repro.mem.array import LineArray, WordArray
from repro.workloads.base import Workload


class ReductionKernel(Workload):
    """The parameterized loop kernel described in the module docstring."""

    #: Override in subclasses.
    name = "kernel"
    outer_work = 50        # private grid updates per outer transaction
    work_alu = 3           # ALU cycles per grid update
    shared_reads = 0       # read-only shared-tree reads per outer tx
    n_reductions = 1       # shared reduction variables
    n_collisions = 0       # shared-cell read-modify-writes per outer tx
    n_cells = 256          # size of the shared collision-cell pool
    collision_alu = 2
    reduction_alu = 8      # ALU cycles per reduction-variable update
    total_outer = 64       # total outer transactions across all threads
    #: Maximum per-iteration compute variance (pre-drawn): real loop
    #: chunks take variable time, which decorrelates the threads'
    #: commit points instead of piling every endgame onto the token.
    jitter = None          # default: half the private compute phase

    def setup(self, machine, runtime, arena):
        n = self.n_threads
        total = max(1, int(self.total_outer * self.scale))
        per_thread = [total // n + (1 if i < total % n else 0)
                      for i in range(n)]
        self._total_outer = total

        # Per-thread private grid slices (line-aligned so threads never
        # false-share).
        self.grid = [
            WordArray(arena, self.outer_work, line_align=True)
            for _ in range(n)
        ]
        self.reductions = WordArray(arena, max(1, self.n_reductions))
        # Shared read-only structure (the barnes/fmm tree stand-in).
        self.tree = WordArray(
            arena, max(1, self.shared_reads * 4),
            initial=[7] * max(1, self.shared_reads * 4))
        # One cell per cache line: disjoint cell updates must not conflict
        # through line-granularity tracking (false sharing would change the
        # workload's semantics, not just its performance).
        self.cells = LineArray(arena, max(1, self.n_cells))

        # Pre-draw every random decision so re-execution after rollback
        # replays identical accesses (determinism).
        rng = random.Random(self.seed)
        self._plans = []
        for tid in range(n):
            plan = []
            jitter = self.jitter
            if jitter is None:
                jitter = max(1, self.outer_work * self.work_alu // 2)
            for _ in range(per_thread[tid]):
                plan.append({
                    "cells": [rng.randrange(self.n_cells)
                              for _ in range(self.n_collisions)],
                    "tree": [rng.randrange(self.tree.length)
                             for _ in range(self.shared_reads)],
                    "jitter": rng.randrange(jitter),
                })
            self._plans.append(plan)

        for tid in range(n):
            runtime.spawn(self._program, tid, cpu_id=tid)
        self._runtime = runtime

    # -- the per-thread program ------------------------------------------------

    def _program(self, t, tid):
        rt = self._runtime
        # The bodies yield their ops directly, not through a WordArray
        # accessor generator per access; this thread's grid addresses
        # and load ops are built once.
        grid = self.grid[tid]
        grid_ops = [(addr, t.load(addr))
                    for addr in map(grid.addr, range(grid.length))]
        for step in self._plans[tid]:
            yield from rt.atomic(t, self._outer_body, grid_ops, step)
        return tid

    def _outer_body(self, t, grid_ops, step):
        # Variable-duration private compute (see ``jitter``).
        yield t.alu(1 + step["jitter"])
        # Private compute phase: long and conflict-free.
        work = t.alu(self.work_alu)
        store = t.store
        for addr, load in grid_ops:
            value = yield load
            yield work
            yield store(addr, value + 1)
        # Shared read-only traversal (tree codes).
        acc = 0
        tree = self.tree
        for index in step["tree"]:
            acc += yield t.load(tree.addr(index))
            yield t.alu(1)
        # Collision updates: one closed-nested transaction touching the
        # shared cells this particle/molecule interacts with, near the end
        # of the outer transaction (mp3d/water/moldyn style: the particle
        # move is long and private, the cell update short and contended).
        rt = self._runtime
        if step["cells"]:
            yield from rt.atomic(t, self._collisions_body, step["cells"])
        # Reduction update near the end of the outer transaction: the
        # paper's canonical closed-nesting use.
        if self.n_reductions:
            yield from rt.atomic(t, self._reduction_body)

    def _collisions_body(self, t, cells):
        work = t.alu(self.collision_alu)
        for cell in cells:
            addr = self.cells.addr(cell)
            value = yield t.load(addr)
            yield work
            yield t.store(addr, value + 1)

    def _reduction_body(self, t):
        work = t.alu(self.reduction_alu)
        for r in range(self.n_reductions):
            addr = self.reductions.addr(r)
            yield work
            value = yield t.load(addr)
            yield t.store(addr, value + 1)

    # -- invariants ---------------------------------------------------------------

    def verify(self, machine):
        memory = machine.memory
        for r in range(self.n_reductions):
            got = memory.read(self.reductions.addr(r))
            if got != self._total_outer:
                raise ReproError(
                    f"{self.name}: reduction {r} = {got}, expected "
                    f"{self._total_outer} (serializability broken)")
        if self.n_collisions:
            total = sum(memory.read(self.cells.addr(i))
                        for i in range(self.n_cells))
            expected = self._total_outer * self.n_collisions
            if total != expected:
                raise ReproError(
                    f"{self.name}: collision sum {total} != {expected}")


# ---------------------------------------------------------------------------
# The seven named kernels
# ---------------------------------------------------------------------------

class SwimKernel(ReductionKernel):
    """SPECcpu2000 swim: shallow-water stencil; three global check sums
    (ucheck/vcheck/pcheck) accumulated at the end of each chunk."""

    name = "swim"
    outer_work = 96
    work_alu = 40
    shared_reads = 0
    n_reductions = 3
    n_collisions = 0
    n_cells = 256
    collision_alu = 2
    total_outer = 32


class TomcatvKernel(ReductionKernel):
    """SPECcpu2000 tomcatv: mesh generation; two residual maxima updated
    at the end of each row chunk."""

    name = "tomcatv"
    outer_work = 112
    work_alu = 40
    shared_reads = 0
    n_reductions = 2
    n_collisions = 0
    n_cells = 256
    collision_alu = 2
    total_outer = 32


class BarnesKernel(ReductionKernel):
    """SPLASH-2 barnes: N-body force computation; long read-only walks of
    the shared tree, rare shared-cell writes, one energy reduction."""

    name = "barnes"
    outer_work = 80
    work_alu = 40
    shared_reads = 32
    n_reductions = 1
    n_collisions = 1
    n_cells = 1024
    collision_alu = 4
    total_outer = 32


class FmmKernel(ReductionKernel):
    """SPLASH-2 fmm: fast multipole method; like barnes with a shallower
    traversal and slightly more frequent shared writes."""

    name = "fmm"
    outer_work = 88
    work_alu = 40
    shared_reads = 20
    n_reductions = 1
    n_collisions = 2
    n_cells = 1024
    collision_alu = 4
    total_outer = 32


class WaterKernel(ReductionKernel):
    """SPLASH water-nsquared: molecular dynamics; inter-molecule updates
    on a moderate shared pool, potential/virial reductions at the end."""

    name = "water"
    outer_work = 84
    work_alu = 40
    shared_reads = 0
    n_reductions = 2
    n_collisions = 3
    n_cells = 256
    collision_alu = 8
    total_outer = 32


class MoldynKernel(ReductionKernel):
    """Java Grande moldyn: force accumulation with moderately contended
    neighbour updates plus epot/vir reductions."""

    name = "moldyn"
    outer_work = 76
    work_alu = 40
    shared_reads = 0
    n_reductions = 2
    n_collisions = 5
    n_cells = 96
    collision_alu = 10
    total_outer = 32


class Mp3dKernel(ReductionKernel):
    """SPLASH mp3d: rarefied-fluid particle simulation — the paper's
    dramatic case.  Many particle/cell collision updates per outer
    transaction over a small cell pool make conflicts frequent; with
    nesting, each collision retries alone instead of rolling back the
    whole particle batch."""

    name = "mp3d"
    outer_work = 120
    work_alu = 40
    shared_reads = 0
    n_reductions = 1
    n_collisions = 16
    n_cells = 32
    collision_alu = 16
    total_outer = 32


#: All Figure 5 scientific kernels in the paper's bar order.
SCIENTIFIC_KERNELS = [
    BarnesKernel,
    FmmKernel,
    MoldynKernel,
    Mp3dKernel,
    SwimKernel,
    TomcatvKernel,
    WaterKernel,
]
