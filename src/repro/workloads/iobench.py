"""The transactional-I/O microbenchmark (paper Section 7.2).

"Each thread repeatedly performs a small computation within a transaction
and outputs a message into a log."  The transactional library buffers the
output in a private buffer and registers a commit handler that performs
the real write; a violated transaction discards the buffer automatically.

The paper reports scalable performance: buffering decouples the threads,
so throughput grows with CPU count even though all threads log to the
same file.  The contended resource is only the file-size word, touched
inside the commit handler's open-nested transaction.
"""

from __future__ import annotations

from repro.common.errors import ReproError
from repro.mem.array import LineArray
from repro.runtime.txio import SimFile, TxIo
from repro.workloads.base import Workload


class IoLogWorkload(Workload):
    """N threads computing and logging transactionally."""

    name = "txio-log"

    #: Computation per transaction (cycles) and log records per thread.
    WORK_ALU = 400
    RECORDS_PER_THREAD = 8
    #: Private state words updated per transaction.
    PRIVATE_WORK = 24

    def setup(self, machine, runtime, arena):
        self._runtime = runtime
        self.io = TxIo(runtime)
        self.log = SimFile(arena, "log")
        self.scratch = [
            LineArray(arena, self.PRIVATE_WORK // 4 or 1)
            for _ in range(self.n_threads)
        ]
        self._records = max(1, int(self.RECORDS_PER_THREAD * self.scale))
        for tid in range(self.n_threads):
            runtime.spawn(self._program, tid, cpu_id=tid)

    def _program(self, t, tid):
        rt = self._runtime
        scratch = self.scratch[tid]
        addrs = [scratch.addr(j % scratch.length)
                 for j in range(self.PRIVATE_WORK)]
        for i in range(self._records):
            yield from rt.atomic(t, self._body, tid, i, addrs)
        return tid

    def _body(self, t, tid, i, addrs):
        work = t.alu(self.WORK_ALU // self.PRIVATE_WORK)
        for addr in addrs:
            value = yield t.load(addr)
            yield work
            yield t.store(addr, value + 1)
        yield from self.io.write(t, self.log, [tid * 1_000_000 + i])

    def verify(self, machine):
        expected = sorted(
            tid * 1_000_000 + i
            for tid in range(self.n_threads)
            for i in range(self._records)
        )
        if sorted(self.log.data) != expected:
            raise ReproError(
                f"txio-log: log holds {len(self.log.data)} records, "
                f"expected {len(expected)} distinct ones")
        size = machine.memory.read(self.log.size_addr)
        if size != len(expected):
            raise ReproError("txio-log: size metadata out of sync")
