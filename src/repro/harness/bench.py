"""Golden-cycle gates: ``python -m repro bench``.

Two gates in one harness (docs/performance.md):

1. **Cycle-equality regression.**  Every cell of a fixed workload matrix
   (kernels × lazy/eager detection × 2–16 CPUs) and the flagship cell —
   the detection-stress kernel (:mod:`repro.workloads.detstress`) on the
   16-CPU eager machine — is simulated once and its cycle count compared
   for *exact* equality against the golden values in
   ``bench_golden.json``.  The simulator is deterministic, so any drift —
   however small — means an optimization changed observable behaviour,
   which is a bug here, never a re-tuning.

2. **Cycle accounting.**  The flagship is re-run under the cycle
   profiler, whose books must close and whose cycle count must equal the
   unprofiled run's (the zero-perturbation guard).

Host time is not measured here: throughput regressions are the repo
benchmark's job (``bench/run.py``), which compares whole runs of two
commits.

``--smoke`` runs a reduced matrix (the 4-CPU column plus the flagship)
for CI; golden values are shared with the full matrix.  Regenerate the
goldens with ``--update-golden`` after an *intentional* behaviour change
(and say why in the commit); a run with any error writes nothing.
"""

from __future__ import annotations

import json
import os

from repro.common.params import functional_config, paper_config
from repro.harness.parallel import CaseSpec, run_campaign
from repro.workloads import DetectionStressKernel, Mp3dKernel, SwimKernel
from repro.workloads.base import Run

#: Path of the golden cycle counts, next to this module.
GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "bench_golden.json")

#: The matrix axes.
KERNELS = {"swim": SwimKernel, "mp3d": Mp3dKernel}
DETECTIONS = ("lazy", "eager")
CPU_COUNTS = (2, 4, 8, 16)
SMOKE_CPU_COUNTS = (4,)

#: The flagship cell: 16-CPU eager detection, deep nesting allowed.
FLAGSHIP_ID = "detstress-eager-x16"
FLAGSHIP_CPUS = 16


def _flagship_config():
    return functional_config(n_cpus=FLAGSHIP_CPUS,
                             **DetectionStressKernel.config_overrides)


def matrix_cells(smoke=False):
    """Yield (cell_id, workload factory, config factory) for the matrix."""
    counts = SMOKE_CPU_COUNTS if smoke else CPU_COUNTS
    for kernel_name, kernel_cls in sorted(KERNELS.items()):
        for detection in DETECTIONS:
            for n_cpus in counts:
                cell_id = f"{kernel_name}-{detection}-x{n_cpus}"
                yield (
                    cell_id,
                    lambda n=n_cpus, cls=kernel_cls: cls(n_threads=n),
                    lambda n=n_cpus, d=detection: paper_config(
                        n_cpus=n, detection=d),
                )


def run_cell(factory, config, max_cycles=2_000_000_000):
    """Run and verify one workload under ``config``; returns its
    simulated cycles and engine steps."""
    machine = factory().run(config, max_cycles=max_cycles)
    return {"cycles": machine.stats.get("cycles"),
            "steps": machine.stats.get("engine.steps")}


def run_cell_by_id(cell_id):
    """Run one matrix cell named by its id (the parallel path's runner).

    The cell id fully determines the workload and config, so a worker
    process reconstructs the cell from the name alone.
    """
    for candidate, factory, config_factory in matrix_cells(smoke=False):
        if candidate == cell_id:
            result = run_cell(factory, config_factory())
            result["id"] = cell_id
            return result
    raise ValueError(f"unknown bench cell {cell_id!r}")


def _cell_failure(spec, message):
    return {"id": spec.name, "cycles": None, "steps": None,
            "error": message}


def run_flagship():
    """Run the flagship cell once, unprofiled."""
    result = run_cell(lambda: DetectionStressKernel(n_threads=FLAGSHIP_CPUS),
                      _flagship_config())
    result["id"] = FLAGSHIP_ID
    return result


def run_flagship_accounting(expected_cycles=None):
    """Profile the flagship run and close the cycle books.

    Doubles as the zero-perturbation guard: the profiler shadows
    ``cpu.execute`` and subscribes to the HTM events, and the machine it
    profiles must still produce *exactly* the unprofiled flagship cycle
    count — any drift means the instrument changed observable behaviour.
    Returns ``(CycleAccount, list of errors)``.
    """
    from repro.obs.profiler import CycleProfiler

    workload = DetectionStressKernel(n_threads=FLAGSHIP_CPUS)
    machine, (profiler,), error = workload.run(
        _flagship_config(), instruments=[CycleProfiler], judge=Run)
    error = workload.checked(machine, error)
    if error is not None:
        raise error
    account = profiler.account()

    errors = []
    cycles = machine.stats.get("cycles")
    if expected_cycles is not None and cycles != expected_cycles:
        errors.append(
            f"{FLAGSHIP_ID} (profiled): {cycles} cycles != unprofiled "
            f"{expected_cycles} — the profiler perturbed the run")
    errors.extend(f"{FLAGSHIP_ID} accounting: {problem}"
                  for problem in account.problems())
    return account, errors


def load_golden():
    if not os.path.exists(GOLDEN_PATH):
        return {}
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def run_bench(smoke=False, update_golden=False, report=print, jobs=1):
    """Run the matrix + flagship; returns (results dict, list of errors).

    ``jobs`` fans the cells out across worker processes; cycle counts
    are simulated, so parallelism cannot perturb them.  A cell that
    raises is recorded as a failed cell, not a crashed bench.

    ``update_golden`` rewrites ``bench_golden.json`` from this run's
    cycle counts — but only when the run has no errors, so a failed cell
    can never leave a ``null`` golden behind.
    """
    golden = {} if update_golden else load_golden()
    errors = []

    def finish_cell(result):
        cell_id = result["id"]
        expected = golden.get(cell_id)
        if result.get("error"):
            result["ok"] = False
            errors.append(f"{cell_id}: {result['error']}")
            report(f"  {cell_id:<22} run FAILED: {result['error']}")
            return
        result["ok"] = expected is None or result["cycles"] == expected
        if expected is None and not update_golden:
            errors.append(f"{cell_id}: no golden cycle count on record")
        elif not result["ok"]:
            errors.append(
                f"{cell_id}: {result['cycles']} cycles != golden {expected}")
        report(f"  {cell_id:<22} {result['cycles']:>9} cycles  "
               f"{'ok' if result['ok'] else 'MISMATCH'}")

    specs = [CaseSpec(runner="repro.harness.bench:run_cell_by_id",
                      name=cell_id, args=(cell_id,))
             for cell_id, _, _ in matrix_cells(smoke=smoke)]
    specs.append(CaseSpec(runner="repro.harness.bench:run_flagship",
                          name=FLAGSHIP_ID))
    *cells, flagship = run_campaign(specs, jobs=jobs, report=finish_cell,
                                    failure_result=_cell_failure)

    if flagship["cycles"] is not None:
        report(f"  {FLAGSHIP_ID}: cycle accounting (profiled re-run)...")
        account, account_errors = run_flagship_accounting(
            expected_cycles=flagship["cycles"])
        errors.extend(account_errors)
        from repro.harness.report import format_cycle_accounting
        for line in format_cycle_accounting(
                account,
                title=f"  wasted-work breakdown ({FLAGSHIP_ID})").splitlines():
            report(f"  {line}")

    results = {
        "cells": cells,
        "flagship": flagship,
        "ok": not errors,
    }
    if update_golden and errors:
        report(f"  golden cycle counts NOT written: {len(errors)} error(s)")
    elif update_golden:
        refreshed = dict(load_golden())
        for cell in [*cells, flagship]:
            refreshed[cell["id"]] = cell["cycles"]
        with open(GOLDEN_PATH, "w") as fh:
            json.dump(refreshed, fh, indent=2, sort_keys=True)
            fh.write("\n")
        report(f"  wrote golden cycle counts to {GOLDEN_PATH}")
    return results, errors


def cmd_bench(args):
    """Entry point for ``python -m repro bench``."""
    print("bench: golden-cycle matrix + flagship cycle accounting")
    _, errors = run_bench(
        smoke=args.smoke, update_golden=args.update_golden, jobs=args.jobs)
    for error in errors:
        print(f"bench FAILURE: {error}")
    return 1 if errors else 0
