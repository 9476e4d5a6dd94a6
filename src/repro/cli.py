"""Command-line interface: regenerate the paper's evaluation from a shell.

::

    python -m repro figure5              # Figure 5, all nine bars
    python -m repro io                   # §7.2 transactional-I/O scaling
    python -m repro condsync             # conditional-scheduling scaling
    python -m repro overheads            # §7 instruction-count table
    python -m repro isa                  # Tables 1 and 2 inventories
    python -m repro profile mp3d         # run one workload, print profile
    python -m repro check                # schedule fuzzer + oracles
    python -m repro all                  # the whole evaluation

Everything prints simulated-cycle results; all runs are deterministic.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.common.params import paper_config
from repro.harness.bench import cmd_bench
from repro.harness.experiment import compare_nesting, scaling_curve
from repro.harness.profile import format_profiles, profile_machine
from repro.harness.report import (
    format_bar_chart,
    format_figure5,
    format_scaling,
    format_table,
)
from repro.workloads import (
    CondSyncWorkload,
    DetectionStressKernel,
    IoLogWorkload,
    JbbWorkload,
    SCIENTIFIC_KERNELS,
)

#: Workloads addressable from the command line.
WORKLOADS = {kernel.name: kernel for kernel in SCIENTIFIC_KERNELS}
WORKLOADS["jbb-closed"] = lambda **kw: JbbWorkload(variant="closed", **kw)
WORKLOADS["jbb-open"] = lambda **kw: JbbWorkload(variant="open", **kw)
WORKLOADS["iolog"] = IoLogWorkload
WORKLOADS["detstress"] = DetectionStressKernel


def cmd_figure5(args):
    comparisons = []
    for kernel in SCIENTIFIC_KERNELS:
        comparisons.append(compare_nesting(
            lambda n, cls=kernel: cls(n_threads=n, scale=args.scale),
            n_cpus=args.cpus))
    for variant in ("closed", "open"):
        comparisons.append(compare_nesting(
            lambda n, v=variant: JbbWorkload(
                n_threads=n, variant=v, scale=args.scale),
            n_cpus=args.cpus))
    print(format_figure5(comparisons))
    print()
    print(format_bar_chart(
        [(c.name, c.improvement) for c in comparisons],
        title="bar heights (nesting vs flattening):"))
    json_path = getattr(args, "json", "")
    if json_path:
        from repro.harness.export import comparison_to_dict, dump_json

        dump_json([comparison_to_dict(c) for c in comparisons], json_path)
        print(f"wrote {json_path}")
    return 0


def cmd_io(args):
    counts = [n for n in (1, 2, 4, 8, 16) if n <= args.max_threads]
    points = scaling_curve(
        lambda n: IoLogWorkload(n_threads=n, scale=args.scale),
        counts=counts,
        config_factory=lambda n: paper_config(n_cpus=n),
        items_of=lambda w: w.n_threads * w._records,
    )
    print(format_scaling(points, "transactional I/O: log records vs CPUs",
                         item_label="records"))
    return 0


def cmd_condsync(args):
    counts = [p for p in (1, 2, 4, 7) if p <= args.max_pairs]
    points = scaling_curve(
        lambda pairs: CondSyncWorkload(n_pairs=pairs, scale=args.scale),
        counts=counts,
        config_factory=lambda pairs: paper_config(n_cpus=2 * pairs + 1),
        items_of=lambda w: w.n_pairs * w._items,
        max_cycles=100_000_000,
    )
    print(format_scaling(
        points, "conditional scheduling: items vs producer/consumer pairs",
        item_label="items"))
    return 0


def cmd_overheads(args):
    from repro.harness.inventory import (
        PUBLISHED_OVERHEADS,
        measure_overheads,
    )

    measured = measure_overheads()
    rows = [(event, PUBLISHED_OVERHEADS[event], measured[event])
            for event in PUBLISHED_OVERHEADS]
    print(format_table(["event", "paper", "measured"], rows,
                       title="instructions per transactional event"))
    return 0 if measured == PUBLISHED_OVERHEADS else 1


def cmd_isa(args):
    from repro.harness.inventory import (
        TABLE1,
        TABLE2,
        exercise_every_instruction,
    )

    print(format_table(
        ["state", "type", "description"],
        [(name, storage, desc) for name, storage, desc in TABLE1],
        title="Table 1: architectural state"))
    print()
    _, executed = exercise_every_instruction()
    print(format_table(
        ["instruction", "exercised", "description"],
        [(name, "yes" if name in executed else "no", desc)
         for name, _, desc in TABLE2],
        title="Table 2: instructions"))
    return 0


def cmd_profile(args):
    factory = WORKLOADS[args.workload]
    profiles = []
    for label, flatten in (("nested", False), ("flat", True)):
        if args.flatten_only and not flatten:
            continue
        workload = factory(n_threads=args.cpus, scale=args.scale)
        machine = workload.run(
            paper_config(n_cpus=max(args.cpus, workload.min_cpus()),
                         flatten=flatten, **workload.config_overrides))
        profiles.append((f"{args.workload} [{label}]",
                         profile_machine(machine)))
    print(format_profiles(profiles,
                          title=f"{args.workload} on {args.cpus} CPUs"))
    return 0


def cmd_trace(args):
    from repro.check.fuzz import build_config
    from repro.check.programs import make_program
    from repro.harness.report import format_cycle_accounting
    from repro.obs import (
        ChromeTraceSink,
        CycleProfiler,
        JsonlSink,
        RingSink,
        TeeSink,
        account_metrics,
        machine_metrics,
    )
    from repro.sim.trace import ALL_KINDS, Tracer
    from repro.workloads.base import Run

    kinds = (frozenset(args.kinds.split(",")) if args.kinds
             else ALL_KINDS)
    if args.target in WORKLOADS:
        workload = WORKLOADS[args.target](
            n_threads=args.cpus, scale=args.scale)
        config = paper_config(n_cpus=max(args.cpus, workload.min_cpus()),
                              **workload.config_overrides)
    else:
        workload = make_program(args.target, seed=args.seed)
        config = build_config(args.config, workload)

    sinks = [RingSink(args.limit, mode="head")]
    if args.jsonl:
        sinks.append(JsonlSink(args.jsonl))
    if args.chrome:
        sinks.append(ChromeTraceSink(args.chrome))
    sink = sinks[0] if len(sinks) == 1 else TeeSink(*sinks)

    try:
        machine, (profiler, tracer), error = workload.run(config, instruments=[
            CycleProfiler, lambda m: Tracer(m, kinds=kinds, sink=sink)],
            judge=Run)
    finally:
        sink.close()
    error = workload.checked(machine, error)
    account = profiler.account()

    print(tracer.format())
    print(f"... {len(tracer.events)} events shown "
          f"(ring limit {args.limit}, {tracer.dropped} dropped); "
          f"kinds: {sorted(kinds)}")
    if args.jsonl:
        print(f"wrote JSONL event stream to {args.jsonl}")
    if args.chrome:
        print(f"wrote Chrome trace to {args.chrome} "
              f"(load in chrome://tracing or ui.perfetto.dev)")
    print()
    print(format_cycle_accounting(
        account, title=f"cycle accounting ({args.target})"))
    if args.metrics:
        registry = machine_metrics(machine)
        account_metrics(account, registry)
        registry.to_json(args.metrics)
        print(f"wrote metrics JSON to {args.metrics}")
    if error is not None:
        print(f"trace: run FAILED: {error}", file=sys.stderr)
        return 1
    return 0 if account.balanced else 1


def _pick(raw, universe, what):
    """The comma-separated names in ``raw`` (None when it is empty),
    exiting with the choices when one is not in ``universe``."""
    if not raw:
        return None
    names = raw.split(",")
    unknown = [n for n in names if n not in universe]
    if unknown:
        raise SystemExit(
            f"unknown {what} {unknown}; choose from {sorted(universe)}")
    return names


def _print_failures(failures, command):
    """Print each failure and the line that reproduces it: the replay
    of its shrunk deviation list, else ``command(failure)``, which
    reruns its cell."""
    from repro.check.fuzz import shrink

    for failure in failures:
        print()
        print(failure)
        deviations, verdict = (shrink(failure) if failure.n_steps
                               else ([], None))
        if verdict is None:
            print("  replay with:")
            print(f"    {command(failure)}")
            continue
        print(f"  shrunk to deviations {list(deviations)}; replay with:")
        print(f"    python -m repro explore --replay {verdict.name} "
              f"--seed {verdict.seed}")


def _cell_command(args, failure):
    """The ``check`` command line that reruns ``failure``'s cell."""
    words = ["python -m repro check", f"--programs {failure.program}",
             f"--configs {failure.config}", f"--policies {failure.policy}",
             f"--seeds {failure.seed}"]
    if failure.fault:
        words.append(f"--inject-fault {failure.fault}")
    if args.timeout:
        words.append(f"--timeout {args.timeout:g}")
    return " ".join(words)


def cmd_check(args):
    from repro.check.fuzz import CONFIGS, POLICIES, summarize, sweep
    from repro.check.programs import PROGRAMS

    fault = args.inject_fault or None
    results = sweep(
        programs=_pick(args.programs, PROGRAMS, "program"),
        configs=_pick(args.configs, CONFIGS, "config"),
        policies=_pick(args.policies, set(POLICIES), "policy") or POLICIES,
        seeds=args.seeds,
        fault=fault,
        report=(print if args.verbose else None),
        jobs=args.jobs,
        timeout=args.timeout or None,
    )
    n_run, n_skipped, failures = summarize(results)
    print(f"check: {n_run} cases run, {n_skipped} skipped, "
          f"{len(failures)} failed"
          + (f" (fault injected: {fault})" if fault else ""))
    _print_failures(failures, lambda failure: _cell_command(args, failure))
    return 1 if failures else 0


def cmd_chaos(args):
    from repro.check.fuzz import (
        CHAOS_FAULTS,
        CONFIGS,
        FAULTS,
        chaos_sweep,
        injection_totals,
        summarize,
    )
    from repro.check.programs import PROGRAMS

    faults = _pick(args.faults, set(FAULTS), "fault")
    results = chaos_sweep(
        faults=faults,
        programs=_pick(args.programs, PROGRAMS, "program"),
        configs=_pick(args.configs, CONFIGS, "config"),
        seeds=args.seeds,
        report=(print if args.verbose else None),
        jobs=args.jobs,
        timeout=args.timeout or None,
    )
    n_run, n_skipped, failures = summarize(results)
    totals = injection_totals(results)
    print(f"chaos: {n_run} cases run, {n_skipped} skipped, "
          f"{len(failures)} failed")
    unreachable = []
    for fault in faults or CHAOS_FAULTS:
        count = totals.get(fault, 0)
        print(f"  {fault}: {count} injections")
        if not count:
            unreachable.append(fault)
    _print_failures(failures, lambda failure: _cell_command(args, failure))
    if unreachable:
        print(f"chaos: fault kinds never fired: {unreachable}",
              file=sys.stderr)
    return 1 if failures or unreachable else 0


def cmd_explore(args):
    from repro.check.explore import (
        failed_search,
        parse_deviations,
        replay,
        search_spec,
    )
    from repro.check.fuzz import CONFIGS
    from repro.check.programs import LITMUS_PROGRAMS, PROGRAMS
    from repro.harness.parallel import run_campaign

    fault = args.inject_fault or None

    if args.replay:
        parts = args.replay.split(":")
        if len(parts) == 4:
            fault, program, config, devstr = parts
        elif len(parts) == 3:
            program, config, devstr = parts
        else:
            print("--replay wants [fault:]program:config:deviations "
                  "(deviations like 3@1,7@0, or det)", file=sys.stderr)
            return 2
        verdict = replay(program, config, parse_deviations(devstr),
                         fault=fault, seed=args.seed)
        print(verdict)
        return 1 if verdict.failed else 0

    programs = (_pick(args.programs, PROGRAMS, "program")
                or list(LITMUS_PROGRAMS))
    configs = _pick(args.configs, CONFIGS, "config") or ["lazy-wb-assoc"]
    bound = None if args.preemption_bound < 0 else args.preemption_bound
    if args.min_checkpoint_speedup and args.no_checkpoint:
        raise SystemExit(
            "--min-checkpoint-speedup needs checkpointing on; "
            "drop --no-checkpoint")

    def show_verdicts(result):
        for verdict in result.verdicts:
            print(verdict)

    def campaign(checkpoint):
        """One full sweep, a whole search per (program, config) pair,
        sharded across ``--jobs`` workers; returns (reports in
        enumeration order, wall-clock seconds)."""
        specs = [search_spec(
            program, config, fault=fault, seed=args.seed,
            preemption_bound=bound, max_depth=args.max_depth or None,
            prune=not args.no_prune,
            max_schedules=args.max_schedules or None,
            timeout=args.timeout or None, checkpoint=checkpoint)
            for program in programs for config in configs]
        start = time.perf_counter()
        reports = run_campaign(
            specs, jobs=args.jobs, failure_result=failed_search,
            report=show_verdicts if args.verbose else None)
        return reports, time.perf_counter() - start

    failures = []
    truncated = False
    gate_failed = False
    results, elapsed = campaign(not args.no_checkpoint)
    for result in results:
        print("explore:", result.summary())
        if args.verbose and result.dpor:
            print(f"  dpor: races={result.races}, "
                  f"backtracks={result.backtracks}, "
                  f"window_fallbacks={result.window_fallbacks}")
        if args.verbose and result.checkpoint_stats:
            stats = result.checkpoint_stats
            print("  checkpoint: "
                  + ", ".join(f"{k}={stats[k]}" for k in sorted(stats)))
        failures.extend(result.failures)
        truncated |= result.truncated
    if args.min_checkpoint_speedup:
        # Differential gate: the stateless control must agree
        # verdict-for-verdict, and checkpointing must pay its way.
        control, control_elapsed = campaign(False)
        mismatches = _diff_explore_reports(results, control)
        for line in mismatches:
            print(f"explore: DIFFERENTIAL MISMATCH {line}",
                  file=sys.stderr)
        speedup = control_elapsed / elapsed if elapsed else float("inf")
        print(f"explore: checkpoint speedup {speedup:.2f}x "
              f"(checkpointed {elapsed:.2f}s, "
              f"stateless {control_elapsed:.2f}s, "
              f"floor {args.min_checkpoint_speedup:.2f}x)")
        if speedup < args.min_checkpoint_speedup:
            print("explore: checkpoint speedup below floor",
                  file=sys.stderr)
            gate_failed = True
        gate_failed |= bool(mismatches)
    if truncated:
        print("explore: schedule cap hit; a capped search is depth-first, "
              "not shallow-first: raise --max-schedules, set --max-depth "
              "for a drainable space, or lower --preemption-bound for "
              "shallow-first coverage", file=sys.stderr)
    _print_failures(failures,
                    lambda failure: _search_command(args, failure))
    return 1 if failures or gate_failed else 0


def _search_command(args, failure):
    """The ``explore`` command line that reruns ``failure``'s search
    alone, with the sweep's search options."""
    words = ["python -m repro explore", f"--programs {failure.program}",
             f"--configs {failure.config}",
             f"--preemption-bound {args.preemption_bound}",
             f"--max-depth {args.max_depth}", f"--seed {args.seed}",
             f"--max-schedules {args.max_schedules}"]
    if args.inject_fault:
        words.append(f"--inject-fault {args.inject_fault}")
    if args.timeout:
        words.append(f"--timeout {args.timeout:g}")
    if args.no_prune:
        words.append("--no-prune")
    if args.no_checkpoint:
        words.append("--no-checkpoint")
    return " ".join(words)


#: Report fields the checkpointed and stateless sweeps must agree on.
_REPORT_FIELDS = ("program", "config", "fault", "seed", "skipped",
                  "explored", "pruned", "truncated", "generations",
                  "races", "backtracks", "window_fallbacks")

#: Per-verdict fields they must agree on, verdict by verdict in
#: enumeration order.
_VERDICT_FIELDS = ("name", "failed", "signature", "outcome")


def _diff_explore_reports(checked, control):
    """Human-readable differences between two explore sweeps that must
    agree (checkpointed vs ``--no-checkpoint``): the reports' counts and
    generations, and each verdict's name, pass/fail, committed-history
    signature and outcome, position by position (enumeration order is
    part of the contract).  One line per differing field; a verdict
    list reports its first differing position and how many differ."""
    out = []
    if len(checked) != len(control):
        out.append(f"{len(checked)} reports != {len(control)}")
    for a, b in zip(checked, control):
        name = f"{a.program}:{a.config}"
        for field in _REPORT_FIELDS:
            va, vb = getattr(a, field), getattr(b, field)
            if va != vb:
                out.append(f"{name}: {field} {va} != {vb}")
        if len(a.verdicts) != len(b.verdicts):
            out.append(f"{name}: {len(a.verdicts)} verdicts != "
                       f"{len(b.verdicts)}")
        for field in _VERDICT_FIELDS:
            differ = [index for index, (va, vb)
                      in enumerate(zip(a.verdicts, b.verdicts))
                      if getattr(va, field) != getattr(vb, field)]
            if differ:
                first = differ[0]
                out.append(
                    f"{name}: verdict {field} differs at {len(differ)} "
                    f"position(s), first #{first}: "
                    f"{repr(getattr(a.verdicts[first], field))[:80]} != "
                    f"{repr(getattr(b.verdicts[first], field))[:80]}")
    return out


def cmd_conform(args):
    from repro.check.fuzz import CONFIGS
    from repro.check.programs import PROGRAMS
    from repro.spec.conform import conform_sweep, summarize_conform

    if args.litmus_only and args.skip_litmus:
        raise SystemExit(
            "--litmus-only and --skip-litmus exclude each other")

    def progress(result):
        if args.verbose:
            status = ("skip" if result.get("skipped")
                      else "ok" if result["ok"] else "FAIL")
            print(f"conform: {result['name']}: {status}")

    results = conform_sweep(
        programs=_pick(args.programs, PROGRAMS, "program"),
        configs=_pick(args.configs, CONFIGS, "config"),
        seeds=args.seeds,
        litmus=not args.skip_litmus,
        cells=not args.litmus_only,
        jobs=args.jobs,
        timeout=args.timeout or None,
        report=progress,
    )
    n_run, n_skipped, failures = summarize_conform(results)
    n_drains = sum(1 for r in results if r.get("kind") == "drain")
    print(f"conform: {n_run} cells run ({n_drains} litmus drains), "
          f"{n_skipped} skipped, {len(failures)} failed")
    for failure in failures:
        print()
        print(f"conform FAILURE {failure['name']}:")
        for detail in failure["violations"]:
            print(f"  {detail}")
    return 1 if failures else 0


def cmd_all(args):
    status = 0
    for step in (cmd_isa, cmd_overheads, cmd_figure5, cmd_io, cmd_condsync):
        print()
        status |= step(args)
        print()
    return status


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the ISCA 2006 HTM-semantics evaluation.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--cpus", type=int, default=8,
                       help="worker CPUs (default 8, the paper's figure)")
        p.add_argument("--scale", type=float, default=1.0,
                       help="workload size multiplier")

    p = sub.add_parser("figure5", help="nesting vs flattening, all bars")
    common(p)
    p.add_argument("--json", default="",
                   help="also write the results as JSON to this path")
    p.set_defaults(fn=cmd_figure5)

    p = sub.add_parser("io", help="transactional-I/O scaling (7.2)")
    common(p)
    p.add_argument("--max-threads", type=int, default=16)
    p.set_defaults(fn=cmd_io)

    p = sub.add_parser("condsync", help="conditional-scheduling scaling")
    common(p)
    p.add_argument("--max-pairs", type=int, default=7)
    p.set_defaults(fn=cmd_condsync)

    p = sub.add_parser("overheads", help="published instruction counts")
    common(p)
    p.set_defaults(fn=cmd_overheads)

    p = sub.add_parser("isa", help="Table 1/2 inventories")
    common(p)
    p.set_defaults(fn=cmd_isa)

    p = sub.add_parser("profile", help="run one workload, print a profile")
    common(p)
    p.add_argument("workload", choices=sorted(WORKLOADS))
    p.add_argument("--flatten-only", action="store_true",
                   help="skip the nested run")
    p.set_defaults(fn=cmd_profile)

    from repro.check.fuzz import CONFIGS
    from repro.check.programs import PROGRAMS

    p = sub.add_parser("trace", help="run a workload or check program; "
                       "print, stream, or export its event trace plus "
                       "cycle accounting")
    common(p)
    p.add_argument("target", choices=sorted(WORKLOADS) + sorted(PROGRAMS),
                   metavar="TARGET",
                   help="a workload kernel or a check/litmus program")
    p.add_argument("--kinds", default="",
                   help="comma-separated event kinds (default: all)")
    p.add_argument("--limit", type=int, default=60,
                   help="in-memory ring capacity for the printed trace")
    p.add_argument("--config", default="lazy-wb-assoc",
                   choices=sorted(CONFIGS),
                   help="machine config for check programs "
                        "(default lazy-wb-assoc; workloads use the "
                        "paper config)")
    p.add_argument("--seed", type=int, default=1,
                   help="check-program seed (default 1)")
    p.add_argument("--jsonl", default="",
                   help="also stream every event to this JSONL file")
    p.add_argument("--chrome", default="",
                   help="also write a Chrome trace-event JSON timeline "
                        "(chrome://tracing / Perfetto loadable)")
    p.add_argument("--metrics", default="",
                   help="write machine + cycle-accounting metrics JSON "
                        "to this path")
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser(
        "bench",
        help="golden-cycle gates: the cycle matrix + flagship cycle "
             "accounting")
    p.add_argument("--smoke", action="store_true",
                   help="reduced matrix for CI (4-CPU column + flagship)")
    p.add_argument("--update-golden", action="store_true",
                   help="rewrite the golden cycle counts from this run")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for the golden-cycle matrix")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser(
        "check",
        help="schedule-exploration fuzzer + serializability oracle")
    p.add_argument("--seeds", type=int, default=3,
                   help="seeds per (program, config, policy) cell")
    p.add_argument("--programs", default="",
                   help="comma-separated program names (default: all)")
    p.add_argument("--configs", default="",
                   help="comma-separated config names (default: all)")
    p.add_argument("--policies", default="",
                   help="comma-separated policies from det,random,pct")
    from repro.check.fuzz import FAULTS
    p.add_argument("--inject-fault", default="", choices=("",) + FAULTS,
                   metavar="FAULT",
                   help="inject a seeded fault (a bare kind must survive "
                        "the oracles; a '+broken' variant re-introduces a "
                        "known bug the oracles must catch)")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for the sweep (default 1; "
                        "results are identical at any job count)")
    p.add_argument("--timeout", type=float, default=0.0,
                   help="per-case budget in seconds; a case over budget "
                        "becomes a run-failure result (default: none)")
    p.add_argument("--verbose", action="store_true",
                   help="print every case as it finishes")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser(
        "chaos",
        help="fault-injection matrix: every recoverable fault kind "
             "across the oracle programs and configs")
    p.add_argument("--seeds", type=int, default=3,
                   help="seeds per (fault, program, config) cell")
    p.add_argument("--faults", default="",
                   help="comma-separated fault kinds (default: all eight)")
    p.add_argument("--programs", default="",
                   help="comma-separated program names (default: all)")
    p.add_argument("--configs", default="",
                   help="comma-separated config names (default: the fast "
                        "four)")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for the matrix (default 1; "
                        "results are identical at any job count)")
    p.add_argument("--timeout", type=float, default=0.0,
                   help="per-case budget in seconds; a case over budget "
                        "becomes a run-failure result (default: none)")
    p.add_argument("--verbose", action="store_true",
                   help="print every case as it finishes")
    p.set_defaults(fn=cmd_chaos)

    p = sub.add_parser(
        "explore",
        help="exhaustive schedule-space model checker (depth-first "
             "preemption bounding with sleep sets; unbounded pruned "
             "drains run source-set DPOR)")
    p.add_argument("--programs", default="",
                   help="comma-separated check programs "
                        "(default: the litmus family)")
    p.add_argument("--configs", default="",
                   help="comma-separated configs (default: lazy-wb-assoc)")
    p.add_argument("--preemption-bound", type=int, default=2,
                   help="max forced deviations per schedule; every "
                        "search runs depth-first, so a low bound is how "
                        "to cover shallow schedules first; negative = "
                        "unbounded (run until the search drains; "
                        "combine with --max-depth)")
    p.add_argument("--max-depth", type=int, default=0,
                   help="branch only at steps below this index "
                        "(0 = no depth bound)")
    p.add_argument("--no-prune", action="store_true",
                   help="disable sleep-set and DPOR pruning (plain "
                        "enumeration)")
    p.add_argument("--seed", type=int, default=1,
                   help="program seed (schedules themselves are "
                        "enumerated, not sampled)")
    p.add_argument("--inject-fault", default="", choices=("",) + FAULTS,
                   help="explore under a deterministic fault plan "
                        "(pruning is disabled: fault state is not "
                        "modeled by the footprints)")
    p.add_argument("--max-schedules", type=int, default=20000,
                   help="safety cap on total runs (0 = uncapped)")
    p.add_argument("--replay", default="",
                   help="replay one schedule: [fault:]program:config:"
                        "deviations (e.g. litmus-sb:lazy-wb-assoc:3@1)")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes; each runs whole (program, "
                        "config) searches (any value yields identical "
                        "output)")
    p.add_argument("--timeout", type=float, default=0.0,
                   help="per-node timeout in seconds; a node over it "
                        "becomes a run-failure verdict")
    p.add_argument("--no-checkpoint", action="store_true",
                   help="disable mid-run checkpoints and replay every "
                        "node from cycle 0 (the differential control; "
                        "verdicts are identical either way)")
    p.add_argument("--min-checkpoint-speedup", type=float, default=0.0,
                   help="after the checkpointed sweep, rerun it with "
                        "--no-checkpoint in the same process, fail "
                        "unless the verdicts match exactly and the "
                        "checkpointed sweep was at least this many "
                        "times faster (0 = skip the gate)")
    p.add_argument("--verbose", action="store_true",
                   help="print every schedule verdict")
    p.set_defaults(fn=cmd_explore)

    p = sub.add_parser(
        "conform",
        help="differential conformance: simulator outcomes vs the "
             "abstract reference semantics (repro.spec)")
    p.add_argument("--programs", default="",
                   help="comma-separated check programs (default: all)")
    p.add_argument("--configs", default="",
                   help="comma-separated configs for the replay cells "
                        "and, where lazy, the litmus drains (default: "
                        "the functional design-space matrix)")
    p.add_argument("--seeds", type=int, default=1,
                   help="seeds per (program, config) replay cell")
    p.add_argument("--litmus-only", action="store_true",
                   help="run only the exhaustive litmus drains")
    p.add_argument("--skip-litmus", action="store_true",
                   help="run only the replay cells")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes (deterministic at any value)")
    p.add_argument("--timeout", type=float, default=0.0,
                   help="per-cell timeout in seconds")
    p.add_argument("--verbose", action="store_true",
                   help="print every cell verdict")
    p.set_defaults(fn=cmd_conform)

    p = sub.add_parser("all", help="the whole evaluation")
    common(p)
    p.add_argument("--max-threads", type=int, default=16)
    p.add_argument("--max-pairs", type=int, default=7)
    p.set_defaults(fn=cmd_all)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
