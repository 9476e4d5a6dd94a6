"""The repository benchmark: host-time throughput of the simulator.

Run from the repository root::

    python3 bench/run.py [--seed N] [--seconds S] [--trace]
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --compare A.json B.json

Without ``--workload`` the run interleaves all four workloads over
``ROUNDS`` rounds (matrix, detstress, paper, campaign, then again), each
in a fresh child process, so host drift spreads across workloads
instead of landing on one.  Each child times its cold start, runs one
warm-up case untimed, runs timed passes for its share of ``--seconds``
and reports its peak RSS; ``SETUP_PROBES`` more children per round
only time a cold start.  The parent pools the passes.  ``--trace`` adds
one child per workload that runs a pass under :class:`layers.LayerTrace`
and reports the per-layer metrics.  With ``--workload`` only that
workload runs, and the last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end
metrics, or with ``--trace 1`` the per-layer ones.

Every simulated count is checked: at seed 1 against the bench goldens
(matrix, detstress) and ``bench/expected.json`` (paper); at every seed
for equality between all runs of a case, and every drain against the
spec's admissible outcomes.  Each run writes a JSON record under
``bench/out/``; ``--compare`` diffs two records against the bounds in
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

try:
    import cases
    import layers
    from repro.harness.bench import load_golden
except ModuleNotFoundError as exc:
    sys.exit(f"bench: cannot import the simulator ({exc}); run from a "
             "checkout of the repository")

#: Rounds of timed child processes per workload (each a cold start
#: and its passes).
ROUNDS = 3

#: Extra children per round that only time a cold start (and run the
#: warm-up case), so ``setup_s`` is a median of ``ROUNDS * 3`` starts.
SETUP_PROBES = 2

#: Default timed seconds per workload for a full run.
DEFAULT_SECONDS = 24.0

#: A child that runs longer than this is killed and counted as failed.
CHILD_TIMEOUT = 170

END_TO_END_UNITS = {
    "steps_per_s": "steps/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

EXPECTED_PATH = os.path.join(HERE, "expected.json")
OUT_DIR = os.path.join(HERE, "out")
BENCHMARK_PATH = os.path.join(ROOT, "BENCHMARK.json")


# ----------------------------------------------------------------------
# Child process: one cold start, a warm-up, then timed or traced passes
# ----------------------------------------------------------------------


def run_pass(workload, seed, index, kind, profile=False):
    """Run every case of one pass; returns the pass record."""
    start = time.perf_counter()
    results = [case.run(profile=profile)
               for case in cases.pass_cases(workload, seed, index)]
    return {"kind": kind, "seconds": time.perf_counter() - start,
            "cases": [dataclasses.asdict(r) for r in results]}


def child_main(args):
    warm = cases.warmup_case(args.child, args.seed)
    built = warm.build()
    setup_s = time.time() - args.launched
    warmup = warm.finish(built)
    out = {"setup_s": setup_s, "passes": [
        {"kind": "warmup", "seconds": 0.0,
         "cases": [dataclasses.asdict(warmup)]}]}
    if args.traced:
        # The campaign's explorer closes CycleProfiler books on every
        # schedule anyway, so its traced pass also yields the profile;
        # a sim workload gets a separate profiled pass instead, keeping
        # the profiler's own cost out of the traced layer times.
        campaign = args.child == "campaign"
        root = "check" if campaign else "harness"
        gc.collect()
        with layers.LayerTrace() as trace:
            traced = trace.span(root, run_pass)(
                args.child, args.seed, 0, "traced", profile=campaign)
        out["passes"].append(traced)
        out["trace"] = trace.data()
        if not campaign:
            gc.collect()
            out["passes"].append(
                run_pass(args.child, args.seed, 1, "profiled", True))
    else:
        start = time.perf_counter()
        index = 0
        while args.budget and (
                index == 0 or time.perf_counter() - start < args.budget):
            # Every pass starts from an empty collector, as the traced
            # and profiled passes do.
            gc.collect()
            out["passes"].append(
                run_pass(args.child, args.seed, index, "timed"))
            index += 1
    out["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(out))
    return 0


def launch(workload, seed, budget=0.0, traced=False):
    """Run one child to completion; returns its report, or a dict with
    an ``error`` when it crashed, hung or printed no report.  A child
    with no ``budget`` (and not ``traced``) only times its cold start."""
    # One hash seed for every child, so string-keyed dict and set
    # layouts (and with them the timings) do not differ per process.
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, os.path.abspath(__file__), "--child", workload,
           "--seed", str(seed), "--budget", repr(budget)]
    if traced:
        cmd.append("--traced")
    cmd += ["--launched", repr(time.time())]
    print(f"bench: {workload} seed {seed}"
          f"{' traced' if traced else ''}...", file=sys.stderr, flush=True)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        return {"error": f"child timed out after {CHILD_TIMEOUT}s"}
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
        return {"error": f"child exited {proc.returncode}: {tail}"}


# ----------------------------------------------------------------------
# Parent: pool children, check every count, summarize
# ----------------------------------------------------------------------


def describe(values, unit, value=None):
    """Median (or ``value``), quartiles and n of ``values``."""
    median = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"value": median if value is None else value, "unit": unit,
            "q1": q1, "q3": q3, "n": len(values)}


def expected_cycles(workload, seed):
    """Recorded cycle counts per case, or None where none apply."""
    if seed != 1 or workload == "campaign":
        return None
    if workload == "paper":
        with open(EXPECTED_PATH) as fh:
            return json.load(fh)
    return load_golden()


def check(workload, seed, children):
    """Check every case result of every child; returns (attempted,
    failed, failure lines, case results by pass kind)."""
    expected = expected_cycles(workload, seed)
    reference = {}
    attempted = failed = 0
    failures = []
    by_kind = {}
    for child in children:
        if "error" in child:
            attempted += 1
            failed += 1
            failures.append(f"{workload}: {child['error']}")
            continue
        for record in child["passes"]:
            results = [cases.CaseResult(**r) for r in record["cases"]]
            by_kind.setdefault(record["kind"], []).append(
                (record["seconds"], results))
            for result in results:
                signature = (result.cycles, result.steps, result.schedules)
                first = reference.setdefault(result.name, signature)
                if signature != first:
                    result.flag(
                        f"{result.name}: cycles/steps/schedules "
                        f"{signature} differ from an earlier run's {first}")
                if expected is not None and result.cycles != expected.get(
                        result.name):
                    result.flag(
                        f"{result.name}: {result.cycles} cycles != "
                        f"expected {expected.get(result.name)}")
                attempted += result.attempted
                failed += result.failed
                failures += [f"{workload}/{line}"
                             for line in result.failures]
    if failed:
        failures.append(
            f"replay: python3 bench/run.py --workload {workload} "
            f"--seed {seed} --seconds 1")
    return attempted, failed, failures, by_kind


def end_to_end(children, probes, timed):
    """The end-to-end metrics from the timed passes, every cold start,
    and the peak RSS of the children that ran passes."""
    if not timed:
        return {}
    steps = [sum(r.steps for r in rs) / s for s, rs in timed]
    setups = [c["setup_s"] for c in children + probes if "error" not in c]
    rss = [c["rss_kb"] / 1024 for c in children if "error" not in c]
    return {
        "steps_per_s": describe(steps, END_TO_END_UNITS["steps_per_s"]),
        "setup_s": describe(setups, END_TO_END_UNITS["setup_s"]),
        "peak_rss_mb": describe(rss, END_TO_END_UNITS["peak_rss_mb"],
                                value=max(rss)),
    }


def summarize(workload, seed, children, probes, traced_child=None):
    """One workload's record: metrics, per-layer table and failures."""
    everything = children + probes + ([traced_child] if traced_child else [])
    attempted, failed, failures, by_kind = check(workload, seed, everything)
    timed = by_kind.get("timed", [])
    summary = {
        "metrics": end_to_end(children, probes, timed),
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "passes": [{"seconds": s, "cases": {r.name: r.seconds for r in rs}}
                   for s, rs in timed],
    }
    if traced_child is not None and "trace" in traced_child:
        (seconds, results), = by_kind["traced"]
        profiled = by_kind.get("profiled", [(seconds, results)])[0][1]
        untraced = statistics.median(s for s, _ in timed) if timed else 0.0
        data = traced_child["trace"]
        summary["per_layer"] = layers.per_layer_metrics(
            data, seconds, results, profiled, untraced)
        summary["layer_self_share"] = layers.layer_shares(data, seconds)
    return summary


def measure(workloads, seed, seconds, trace, rounds):
    """Run the children, interleaving workloads round by round; each
    child times passes for ``seconds / ROUNDS``."""
    children = {w: [] for w in workloads}
    probes = {w: [] for w in workloads}
    budget = seconds / ROUNDS
    for _ in range(rounds):
        for workload in workloads:
            children[workload].append(launch(workload, seed, budget))
            probes[workload] += [launch(workload, seed)
                                 for _ in range(SETUP_PROBES)]
    traced = {w: launch(w, seed, traced=True) for w in workloads} \
        if trace else {}
    return {w: summarize(w, seed, children[w], probes[w], traced.get(w))
            for w in workloads}


# ----------------------------------------------------------------------
# Records, reports and --compare
# ----------------------------------------------------------------------


def git_sha():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def write_record(args, results):
    record = {
        "command": ["python3", "bench/run.py", *sys.argv[1:]],
        "args": vars(args),
        "git_sha": git_sha(),
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "created": datetime.datetime.now(datetime.timezone.utc)
        .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "workloads": results,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    label = args.workload or "all"
    stamp = record["created"].replace(":", "").replace("-", "")
    path = os.path.join(
        OUT_DIR, f"{stamp}-{label}-seed{args.seed}"
        f"{'-trace' if args.trace else ''}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return path


def print_report(results):
    for workload, summary in results.items():
        rate = summary["failed"] / max(1, summary["attempted"])
        print(f"{workload}: error_rate {rate:.6g} "
              f"({summary['failed']}/{summary['attempted']} operations "
              f"failed)")
        for name, m in summary["metrics"].items():
            print(f"  {name:<16} {m['value']:>14.6g} {m['unit']:<12} "
                  f"q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  n {m['n']}")
        for name, m in summary.get("per_layer", {}).items():
            print(f"  {name:<34} {m['value']:>14.6g} {m['unit']}")
        for layer, share in summary.get("layer_self_share", {}).items():
            print(f"  self share {layer:<23} {share:>14.4f}")
        for line in summary["failures"]:
            print(f"  FAILED {line}")


def load_benchmark():
    with open(BENCHMARK_PATH) as fh:
        return json.load(fh)


def compare(path_a, path_b, report=print):
    """Print the median delta of every (metric, workload) pair of two
    records against the metric's bound; returns the exit status (1 if
    any pair regressed or record B has failures)."""
    benchmark = load_benchmark()
    with open(path_a) as fh:
        a = json.load(fh)["workloads"]
    with open(path_b) as fh:
        b = json.load(fh)["workloads"]
    status = 0
    for spec in benchmark["end_to_end"]:
        name, bound = spec["name"], spec["bound"]
        sign = 1 if spec["better"] == "higher" else -1
        for workload in a:
            if workload not in b:
                continue
            ma = a[workload]["metrics"].get(name)
            mb = b[workload]["metrics"].get(name)
            if ma is None or mb is None:
                continue
            delta = (mb["value"] - ma["value"]) / ma["value"]
            gain = sign * delta
            spread = max((m["q3"] - m["q1"]) / m["value"] for m in (ma, mb))
            if spread > bound:
                verdict = "unresolved"
            elif gain < -bound:
                verdict = "REGRESSED"
                status = 1
            elif gain > bound:
                verdict = "improved"
            else:
                verdict = "within bound"
            report(f"{name:<16} {workload:<10} {ma['value']:>12.6g} -> "
                   f"{mb['value']:>12.6g} {mb['unit']:<12} "
                   f"{delta:+8.2%} (bound {bound:.0%}, spread "
                   f"{spread:.1%}) {verdict}")
    for workload in b:
        failed, attempted = b[workload]["failed"], b[workload]["attempted"]
        report(f"{'error_rate':<16} {workload:<10} "
               f"{failed / max(1, attempted):.6g}")
        if failed:
            status = 1
    return status


# ----------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Host-time benchmark of the simulator.")
    parser.add_argument("--workload", choices=cases.WORKLOADS,
                        help="run only this workload and end with the "
                        "JSON result line")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="timed seconds per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1,
                        default=0, choices=(0, 1),
                        help="also run a traced pass for per-layer "
                        "metrics (--workload: report only those)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--child", choices=cases.WORKLOADS,
                        help=argparse.SUPPRESS)
    parser.add_argument("--budget", type=float, default=0.0,
                        help=argparse.SUPPRESS)
    parser.add_argument("--traced", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--launched", type=float, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    if args.compare:
        return compare(*args.compare)
    if args.workload:
        # One workload; with --trace 1, one round of untraced reference
        # children plus the traced child.
        workloads = (args.workload,)
        rounds = 1 if args.trace else ROUNDS
    else:
        workloads = cases.WORKLOADS
        rounds = ROUNDS
    results = measure(workloads, args.seed, args.seconds, args.trace, rounds)
    print_report(results)
    print(f"wrote {write_record(args, results)}")
    attempted = sum(s["attempted"] for s in results.values())
    failed = sum(s["failed"] for s in results.values())
    if args.workload:
        summary = results[args.workload]
        table = summary.get("per_layer", {}) if args.trace \
            else summary["metrics"]
        print(json.dumps({
            "correct": failed == 0, "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                        for name, m in table.items()}}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
