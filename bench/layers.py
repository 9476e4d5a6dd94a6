"""Host-time spans around the simulator's public layer entry points.

:class:`LayerTrace` patches, for the length of one ``with`` block:

* ``Machine.__init__`` (span ``machine.build``), which also wraps each
  new CPU's ``execute`` slot (span ``isa.execute``);
* ``Machine.run``, ``Machine.snapshot`` and ``Machine.restore``;
* the public ``HtmSystem`` transaction methods (``htm.<method>``);
* ``access``/``commit_broadcast``/``arbitrate_commit`` on every
  ``MemoryModel`` class that defines them (``memsys.<method>``);
* ``setup``/``verify`` on every ``Workload`` class that defines them;
* ``repro.spec.outcomes.spec_outcomes`` and the per-schedule conformance
  replay ``repro.check.fuzz.check_conformance`` (``spec.*``).

Each span adds its duration to its parent span's child time, so a
span's *self* time is its duration minus its children's.  Anything not
inside a span (engine loop, generator resumes: runtime and workload
program code) is the self time of ``sim.run``; an instrument wrapper
that shadows a patched method is charged to whoever called it.
Counts and times stay in memory until :meth:`LayerTrace.data` hands
them out; leaving the block restores every patched attribute.
"""

from __future__ import annotations

import collections
import time

# repro.check.programs and repro.memsys.coherence are imported so that
# every Workload and MemoryModel subclass exists before patching.
import repro.check.programs  # noqa: F401
import repro.memsys.coherence  # noqa: F401
from repro.check import fuzz
from repro.htm.system import HtmSystem
from repro.memsys.hierarchy import MemoryModel
from repro.sim.engine import Machine
from repro.spec import outcomes
from repro.workloads import Workload

HTM_METHODS = ("begin", "load", "store", "validate", "commit",
               "rollback_to", "abandon_all", "im_load", "im_store",
               "im_store_id", "release")
MEMSYS_METHODS = ("access", "commit_broadcast", "arbitrate_commit")
WORKLOAD_METHODS = ("setup", "verify")


def _classes(root):
    """``root`` and every subclass of it, depth first."""
    out = [root]
    for sub in root.__subclasses__():
        out += _classes(sub)
    return out


class LayerTrace:
    """Self-time spans and call counts per layer entry point."""

    def __init__(self):
        self.calls = collections.Counter()
        self.self_s = collections.defaultdict(float)
        #: Inclusive seconds, counted at the outermost of nested
        #: same-name spans.
        self.total_s = collections.defaultdict(float)
        #: Simulated counters summed over every machine run.
        self.counts = collections.Counter()
        self._stack = [0.0]
        self._depth = collections.Counter()
        self._patched = []
        self._cpus = []

    # -- spans -------------------------------------------------------------

    def span(self, name, fn):
        """``fn`` wrapped in a span called ``name``."""
        stack = self._stack
        depth = self._depth
        calls = self.calls
        self_s = self.self_s
        total_s = self.total_s
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            depth[name] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[name] += elapsed - stack.pop()
                stack[-1] += elapsed
                calls[name] += 1
                depth[name] -= 1
                if not depth[name]:
                    total_s[name] += elapsed

        return traced

    def _untimed(self, fn, *args):
        """Run trace bookkeeping, hiding its time from every layer."""
        start = time.perf_counter()
        fn(*args)
        self._stack[-1] += time.perf_counter() - start

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _patch_span(self, owner, attr, name):
        self._patch(owner, attr, self.span(name, vars(owner)[attr]))

    def patched(self):
        """``(owner, attr, original)`` for every patched attribute."""
        return list(self._patched)

    def __enter__(self):
        build = self.span("machine.build", vars(Machine)["__init__"])
        run = self.span("sim.run", vars(Machine)["run"])

        def init(machine, *args, **kwargs):
            build(machine, *args, **kwargs)
            self._untimed(self._wrap_cpus, machine)

        def run_machine(machine, *args, **kwargs):
            try:
                return run(machine, *args, **kwargs)
            finally:
                self._untimed(self._count, machine.stats)

        self._patch(Machine, "__init__", init)
        self._patch(Machine, "run", run_machine)
        self._patch_span(Machine, "snapshot", "sim.snapshot")
        self._patch_span(Machine, "restore", "sim.restore")
        for method in HTM_METHODS:
            self._patch_span(HtmSystem, method, f"htm.{method}")
        for cls in _classes(MemoryModel):
            for method in MEMSYS_METHODS:
                if method in vars(cls):
                    self._patch_span(cls, method, f"memsys.{method}")
        for cls in _classes(Workload):
            for method in WORKLOAD_METHODS:
                if method in vars(cls):
                    self._patch_span(cls, method, f"workloads.{method}")
        self._patch_span(outcomes, "spec_outcomes", "spec.outcomes")
        self._patch_span(fuzz, "check_conformance", "spec.replay")
        return self

    def __exit__(self, *exc):
        for cpu, original, wrapper in self._cpus:
            if cpu.execute is wrapper:
                cpu.execute = original
        self._cpus = []
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        return False

    def _wrap_cpus(self, machine):
        for cpu in machine.cpus:
            original = cpu.execute
            cpu.execute = self.span("isa.execute", original)
            self._cpus.append((cpu, original, cpu.execute))

    def _count(self, stats):
        """Fold one run's transaction attempts (every begin, plus every
        restart after a rollback), commits and L1 probes into counts."""
        for key, value in stats.as_dict().items():
            name = key.split(".", 1)[1] if key.startswith("cpu") else key
            if name.startswith("htm.begins") or name == "htm.restarts":
                self.counts["htm.attempts"] += value
            elif name.startswith("htm.commits_"):
                self.counts["htm.commits"] += value
            elif name in ("l1.hits", "l1.misses"):
                self.counts[name] += value

    def data(self):
        """The trace as plain dicts (what a child process reports)."""
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "total_s": dict(self.total_s), "counts": dict(self.counts)}


#: Per-layer metric -> unit, in report order.
PER_LAYER_UNITS = {
    "sim.self_us_per_step": "us/step",
    "sim.run.share": "fraction",
    "sim.run.us_per_step": "us/step",
    "sim.snapshot.restore.calls": "count",
    "sim.snapshot.restore.us_per_call": "us",
    "sim.snapshot.share": "fraction",
    "isa.calls_per_step": "calls/step",
    "isa.self_us_per_step": "us/step",
    "htm.calls_per_step": "calls/step",
    "htm.self_us_per_step": "us/step",
    **{f"htm.{m}.us_per_call": "us"
       for m in ("load", "store", "commit", "validate", "rollback_to")},
    **{f"htm.{m}.calls": "count" for m in HTM_METHODS},
    "htm.commit_ratio": "fraction",
    "htm.wasted_share": "fraction",
    "memsys.calls_per_step": "calls/step",
    "memsys.self_us_per_step": "us/step",
    "memsys.access.us_per_call": "us",
    "memsys.l1_hit_rate": "fraction",
    "machine.build_ms": "ms",
    "workloads.setup_ms": "ms",
    "workloads.verify_ms": "ms",
    "check.checkpoint.hit_rate": "fraction",
    "check.checkpoint.deposits": "count",
    "check.steps_per_schedule": "steps",
    "check.self_share": "fraction",
    "spec.share": "fraction",
    "trace.overhead": "ratio",
}

#: Layers for the self-time breakdown: name -> span-name prefixes.
LAYERS = {
    "harness": ("harness",), "check": ("check",),
    "machine.build": ("machine.build",), "sim": ("sim.run",),
    "sim.snapshot": ("sim.snapshot", "sim.restore"),
    "isa": ("isa.",), "htm": ("htm.",), "memsys": ("memsys.",),
    "workloads": ("workloads.",), "spec": ("spec.",),
}


def _ratio(part, whole):
    return part / whole if whole else 0.0


def _sum(table, prefix):
    return sum(v for k, v in table.items() if k.startswith(prefix))


def layer_shares(data, seconds):
    """Each layer's self time as a share of the traced pass; ``trace``
    is the remainder, the trace's own bookkeeping."""
    shares = {layer: _ratio(sum(_sum(data["self_s"], p) for p in prefixes),
                            seconds)
              for layer, prefixes in LAYERS.items()}
    shares["trace"] = 1.0 - sum(shares.values())
    return shares


def per_layer_metrics(data, seconds, results, profiled, untraced_seconds):
    """Every per-layer metric for one traced pass.

    ``results`` are the traced pass's case results and ``seconds`` its
    host time; ``profiled`` are case results that carry CycleProfiler
    books; ``untraced_seconds`` is the untraced median pass time.
    """
    # Counters read absent spans (never called in this pass) as zero.
    calls, self_s, total_s, counts = (
        collections.Counter(data[key])
        for key in ("calls", "self_s", "total_s", "counts"))
    steps = sum(r.steps for r in results)
    schedules = sum(r.schedules for r in results)
    hits = sum(r.checkpoint.get("hits", 0) for r in results)
    misses = sum(r.checkpoint.get("misses", 0) for r in results)
    l1 = counts["l1.hits"] + counts["l1.misses"]
    us = 1e6

    def per_call(span):
        return _ratio(total_s[span], calls[span]) * us

    values = {
        "sim.self_us_per_step": _ratio(self_s["sim.run"], steps) * us,
        "sim.run.share": _ratio(total_s["sim.run"], seconds),
        "sim.run.us_per_step": _ratio(total_s["sim.run"], steps) * us,
        "sim.snapshot.restore.calls": calls["sim.restore"],
        "sim.snapshot.restore.us_per_call": per_call("sim.restore"),
        "sim.snapshot.share": _ratio(
            total_s["sim.snapshot"] + total_s["sim.restore"], seconds),
        "isa.calls_per_step": _ratio(calls["isa.execute"], steps),
        "isa.self_us_per_step": _ratio(self_s["isa.execute"], steps) * us,
        "htm.calls_per_step": _ratio(_sum(calls, "htm."), steps),
        "htm.self_us_per_step": _ratio(_sum(self_s, "htm."), steps) * us,
        **{f"htm.{m}.us_per_call": per_call(f"htm.{m}")
           for m in ("load", "store", "commit", "validate", "rollback_to")},
        **{f"htm.{m}.calls": calls[f"htm.{m}"] for m in HTM_METHODS},
        "htm.commit_ratio": _ratio(counts["htm.commits"],
                                   counts["htm.attempts"]),
        "htm.wasted_share": _ratio(sum(r.wasted for r in profiled),
                                   sum(r.budget for r in profiled)),
        "memsys.calls_per_step": _ratio(_sum(calls, "memsys."), steps),
        "memsys.self_us_per_step": _ratio(_sum(self_s, "memsys."),
                                          steps) * us,
        "memsys.access.us_per_call": per_call("memsys.access"),
        "memsys.l1_hit_rate": _ratio(counts["l1.hits"], l1),
        "machine.build_ms": total_s["machine.build"] * 1e3,
        "workloads.setup_ms": total_s["workloads.setup"] * 1e3,
        "workloads.verify_ms": total_s["workloads.verify"] * 1e3,
        "check.checkpoint.hit_rate": _ratio(hits, hits + misses),
        "check.checkpoint.deposits": sum(
            r.checkpoint.get("deposits", 0) for r in results),
        "check.steps_per_schedule": _ratio(steps, schedules),
        "check.self_share": _ratio(self_s["check"], seconds),
        "spec.share": _ratio(_sum(total_s, "spec."), seconds),
        "trace.overhead": _ratio(seconds, untraced_seconds),
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()}

