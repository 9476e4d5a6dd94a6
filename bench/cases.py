"""The benchmark's four workloads: what one pass runs, and its checks.

A workload is a list of *cases*; one pass runs every case once.  Every
case reports its simulated cycles and engine steps, which are exact, so
each run doubles as a correctness check (see ``run.py``).

* ``matrix``    the 16 golden cells of ``repro.harness.bench``
                (swim, mp3d x lazy/eager x 2/4/8/16 CPUs);
* ``detstress`` the 16-CPU eager deep-nesting flagship;
* ``paper``     jbb closed/flat/open, transactional I/O, condsync;
* ``campaign``  exhaustive explorer drains of litmus-sb and litmus-mp,
                gated to equal the spec's admissible outcome sets.

Everything here drives the simulator through its public API only.
"""

from __future__ import annotations

import dataclasses
import time

from repro.check.explore import explore
from repro.check.fuzz import build_config
from repro.check.programs import make_program
from repro.common.params import functional_config, paper_config
from repro.harness.bench import FLAGSHIP_CPUS, FLAGSHIP_ID, matrix_cells
from repro.mem.layout import SharedArena
from repro.obs.profiler import CycleProfiler
from repro.runtime.core import Runtime
from repro.sim.engine import Machine
from repro.spec import conform, outcomes
from repro.workloads import (
    CondSyncWorkload,
    DetectionStressKernel,
    IoLogWorkload,
    JbbWorkload,
)

#: Workload names in the order a full run interleaves them.
WORKLOADS = ("matrix", "detstress", "paper", "campaign")

MAX_CYCLES = 2_000_000_000

#: The explorer config and litmus programs the campaign drains.
DRAIN_CONFIG = "lazy-wb-assoc"
DRAIN_PROGRAMS = ("litmus-sb", "litmus-mp")


@dataclasses.dataclass
class CaseResult:
    """One case run: exact simulated counts plus its host seconds."""

    name: str
    seconds: float = 0.0
    cycles: int = None
    steps: int = 0
    #: Complete machine runs: 1 for a sim case, the explored schedules
    #: for a drain.
    schedules: int = 0
    #: Operations attempted: the case run, or each explored schedule
    #: plus the drain verdict.
    attempted: int = 1
    #: One line per failure, each with what replays it.
    failures: list = dataclasses.field(default_factory=list)
    failed_schedules: int = 0
    #: The case run (or drain verdict) itself failed.
    case_failed: bool = False
    #: Explorer checkpoint-cache counters (drains only).
    checkpoint: dict = dataclasses.field(default_factory=dict)
    #: Wasted and total simulated CPU-cycles from CycleProfiler books
    #: (only when the case ran profiled).
    wasted: int = 0
    budget: int = 0

    @property
    def failed(self):
        """Failed operations."""
        return self.failed_schedules + self.case_failed

    def flag(self, message):
        """Fail the case run (or drain verdict) itself."""
        self.case_failed = True
        self.failures.append(message)


class SimCase:
    """Build one workload on one machine, run it, verify it."""

    def __init__(self, name, make_workload, make_config):
        self.name = name
        self.make_workload = make_workload
        #: ``make_config(workload)`` -> SystemConfig.
        self.make_config = make_config

    def build(self):
        """Machine + Runtime + SharedArena + ``Workload.setup``."""
        workload = self.make_workload()
        machine = Machine(self.make_config(workload))
        workload.setup(machine, Runtime(machine), SharedArena(machine))
        return workload, machine

    def finish(self, built, profile=False):
        """Run and verify a built case; never raises."""
        workload, machine = built
        result = CaseResult(self.name, schedules=1)
        profiler = CycleProfiler(machine) if profile else None
        try:
            machine.run(max_cycles=MAX_CYCLES)
            workload.verify(machine)
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            result.flag(f"{self.name}: {type(exc).__name__}: {exc}")
        finally:
            if profiler is not None:
                profiler.detach()
        result.cycles = machine.stats.get("cycles")
        result.steps = machine.stats.get("engine.steps")
        if profiler is not None:
            account = profiler.account()
            result.wasted = account.totals["wasted"]
            result.budget = account.budget
            for problem in account.problems():
                result.flag(f"{self.name}: cycle accounting: {problem}")
        return result

    def run(self, profile=False):
        start = time.perf_counter()
        try:
            built = self.build()
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            result = CaseResult(self.name)
            result.flag(f"{self.name}: setup: {type(exc).__name__}: {exc}")
        else:
            result = self.finish(built, profile)
        result.seconds = time.perf_counter() - start
        return result


class DrainCase:
    """One exhaustive litmus drain; its observed outcome set must equal
    the spec-admissible set (``repro.spec.conform.run_drain_cell``'s
    gate, kept here because the benchmark needs each verdict's steps and
    the report's checkpoint counters)."""

    def __init__(self, program, seed):
        self.name = program
        self.seed = seed

    def run(self, profile=False):
        seed = self.seed
        start = time.perf_counter()
        result = CaseResult(self.name)
        seen = set()
        accounts = {}

        def judge(verdict):
            result.schedules += 1
            result.attempted += 1
            result.steps += verdict.n_steps
            if verdict.error is None:
                seen.add(verdict.outcome)
            if verdict.error is not None or verdict.failed:
                problems = [str(v) for v in verdict.violations]
                if verdict.error is not None:
                    problems.insert(0, verdict.error)
                result.failed_schedules += 1
                result.failures.append(
                    f"{verdict.name}: {'; '.join(problems)} | replay: "
                    f"PYTHONPATH=src python -m repro explore --replay "
                    f"{verdict.name} --seed {seed}")

        original = vars(CycleProfiler)["account"]
        if profile:
            # The explorer closes one profiler's books per schedule.
            def collect(profiler, *args, **kwargs):
                account = original(profiler, *args, **kwargs)
                accounts[id(account)] = account
                return account
            CycleProfiler.account = collect
        try:
            report = explore(
                self.name, DRAIN_CONFIG, seed=seed, preemption_bound=None,
                max_depth=conform.LITMUS_DEPTHS[self.name], report=judge)
            admissible = outcomes.spec_outcomes(self.name, seed=seed)
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            result.flag(f"{self.name}: drain: {type(exc).__name__}: {exc}")
        else:
            problems = []
            if report.truncated:
                problems.append("drain truncated; not exhaustive")
            problems += [f"outcome outside the admissible set: {o!r}"
                         for o in sorted(seen - admissible, key=repr)]
            problems += [f"admissible outcome never observed: {o!r}"
                         for o in sorted(admissible - seen, key=repr)]
            if problems:
                result.flag(f"{self.name} drain: " + "; ".join(problems))
            result.checkpoint = dict(report.checkpoint_stats or {})
        finally:
            CycleProfiler.account = original
        for account in accounts.values():
            result.wasted += account.totals["wasted"]
            result.budget += account.budget
        result.seconds = time.perf_counter() - start
        return result


def _paper_cases(seed):
    return [
        SimCase("jbb-closed-x8",
                lambda: JbbWorkload(n_threads=8, seed=seed),
                lambda w: paper_config(n_cpus=8)),
        SimCase("jbb-flat-x8",
                lambda: JbbWorkload(n_threads=8, seed=seed),
                lambda w: paper_config(n_cpus=8, flatten=True)),
        SimCase("jbb-open-x8",
                lambda: JbbWorkload(n_threads=8, seed=seed, variant="open"),
                lambda w: paper_config(n_cpus=8)),
        SimCase("iolog-x8",
                lambda: IoLogWorkload(n_threads=8, seed=seed),
                lambda w: paper_config(n_cpus=8)),
        SimCase("condsync-3pairs",
                lambda: CondSyncWorkload(n_pairs=3, seed=seed),
                lambda w: paper_config(n_cpus=7)),
    ]


def _matrix_cases(seed):
    def seeded(factory):
        def make():
            workload = factory()
            workload.seed = seed
            return workload
        return make

    return [SimCase(cell_id, seeded(factory),
                    lambda w, config=config: config())
            for cell_id, factory, config in matrix_cells()]


def _detstress_cases(seed):
    return [SimCase(
        FLAGSHIP_ID,
        lambda: DetectionStressKernel(n_threads=FLAGSHIP_CPUS, seed=seed),
        lambda w: functional_config(n_cpus=FLAGSHIP_CPUS,
                                    **DetectionStressKernel.config_overrides))]


def pass_cases(workload, seed, index=0):
    """The cases pass ``index`` of ``workload`` runs, in order.

    Litmus programs draw no random input, so a drain's seed only salts
    the explorer's checkpoint-cache key: each pass in a process gets its
    own salt and starts from a cache that holds none of its states, like
    a fresh ``conform`` run.
    """
    if workload == "campaign":
        return [DrainCase(program, seed * 1000 + index)
                for program in DRAIN_PROGRAMS]
    return {"matrix": _matrix_cases, "detstress": _detstress_cases,
            "paper": _paper_cases}[workload](seed)


def warmup_case(workload, seed):
    """The small untimed case a fresh process builds first (its build
    ends the cold start): a pass's first case, or for the campaign one
    deterministic run of the first litmus program."""
    if workload == "campaign":
        return SimCase(
            f"{DRAIN_PROGRAMS[0]}-det",
            lambda: make_program(DRAIN_PROGRAMS[0], seed=seed),
            lambda program: build_config(DRAIN_CONFIG, program))
    return pass_cases(workload, seed)[0]
