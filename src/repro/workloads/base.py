"""Workload framework: build, run, verify.

A :class:`Workload` owns its shared-memory layout and thread programs.
The harness runs the same workload object class under different machine
configurations (sequential 1-CPU, flat 8-CPU, nested 8-CPU, ...) and
compares simulated cycle counts — the methodology behind every figure in
Section 7.  Every run in the package goes through :meth:`Workload.run`.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.common.errors import ReproError
from repro.mem.layout import SharedArena
from repro.runtime.core import Runtime
from repro.sim.engine import Machine
from repro.sim.schedule import SchedulePruned


class Run(NamedTuple):
    """A finished :meth:`Workload.run`: pass ``judge=Run`` to get it."""

    machine: Machine
    #: The instruments, in attach order (all detached by now).
    instruments: tuple
    #: What :func:`caught` caught from set-up or the run, else None.
    error: Exception


def caught(call, *args, **kwargs):
    """The error ``call`` raised to end a run (a :class:`ReproError` or
    the explorer's ``SchedulePruned``), else None."""
    try:
        call(*args, **kwargs)
    except ReproError as exc:
        return exc
    except SchedulePruned as exc:
        # Exploration control flow, never printed: dropping its
        # traceback keeps the frames above (a search's checkpoints) out
        # of a cycle with the one that keeps the error.
        return exc.with_traceback(None)
    return None


class Workload:
    """Base class: subclasses define layout and per-thread programs."""

    #: Short name used in reports.
    name = "workload"

    #: Config overrides this workload needs on top of the harness's
    #: default machine (e.g. detstress wants eager detection and deep
    #: nesting); the CLI's profile/trace commands apply them.
    config_overrides = {}

    def __init__(self, n_threads, seed=1, scale=1.0):
        self.n_threads = n_threads
        self.seed = seed
        self.scale = scale

    # -- to override -------------------------------------------------------

    def setup(self, machine, runtime, arena):
        """Allocate shared structures and spawn threads."""
        raise NotImplementedError

    def verify(self, machine):
        """Check the final memory state; raise on corruption.

        Workloads with a cheap correctness invariant implement this so
        every benchmark run doubles as a correctness test.
        """

    # -- driver ------------------------------------------------------------

    def prepare(self, machine):
        """The set-up half of :meth:`run` (all a checkpoint restore
        re-runs): the runtime, the shared arena and :meth:`setup`."""
        self.setup(machine, Runtime(machine), SharedArena(machine))
        return self

    def checked(self, machine, error=None):
        """``error``, else the :class:`ReproError` :meth:`verify` raises
        on ``machine``'s final state (None if it passes)."""
        if error is None:
            try:
                self.verify(machine)
            except ReproError as exc:
                return exc
        return error

    def run(self, config, max_cycles=2_000_000_000, policy=None,
            instruments=(), judge=None):
        """Build a machine, set this workload up on it and run it.

        ``policy`` selects the engine's ready-CPU schedule
        (:mod:`repro.sim.schedule`); None keeps the deterministic default.

        ``instruments`` is a sequence of factories, each called with the
        built machine before set-up (e.g. ``Tracer``, ``CycleProfiler``,
        or a lambda configuring either); the resulting instruments are
        detached in reverse attach order on any exit.

        An error from set-up or the run is :func:`caught`, and
        ``judge(machine, instruments, error)`` decides what to return
        (``judge=Run`` returns all three).  Without a judge the run is
        verified and the machine returned (stats under
        ``machine.stats``); an error is raised.
        """
        if config.n_cpus < self.min_cpus():
            raise ReproError(
                f"{self.name} needs >= {self.min_cpus()} CPUs, config has "
                f"{config.n_cpus}")
        machine = Machine(config, policy=policy)
        attached = []
        try:
            for factory in instruments:
                attached.append(factory(machine))
            error = (caught(self.prepare, machine)
                     or caught(machine.run, max_cycles=max_cycles))
        finally:
            for instrument in reversed(attached):
                instrument.detach()
        if judge is not None:
            return judge(machine, tuple(attached), error)
        error = self.checked(machine, error)
        if error is not None:
            raise error
        return machine

    def min_cpus(self):
        return self.n_threads
