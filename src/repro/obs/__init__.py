"""Observability: trace sinks, cycle accounting, unified metrics.

The production-shape layer over the simulator's instruments
(docs/observability.md): pluggable sinks for the
:class:`~repro.sim.trace.Tracer`, a cycle-accounting profiler whose
buckets must conserve ``cycles × cpus`` exactly, a labeled metrics
registry over the stats tree, and the observer contract
(:mod:`repro.obs.observer`) every instrument subscribes through.
"""

from repro.obs.metrics import (
    MetricsRegistry,
    account_metrics,
    machine_metrics,
    snapshot_delta,
    txstats_metrics,
)
from repro.obs.observer import Observer
from repro.obs.profiler import BUCKETS, CycleAccount, CycleProfiler
from repro.obs.sinks import (
    ChromeTraceSink,
    JsonlSink,
    RingSink,
    TeeSink,
    load_jsonl,
)

__all__ = [
    "BUCKETS",
    "ChromeTraceSink",
    "CycleAccount",
    "CycleProfiler",
    "JsonlSink",
    "MetricsRegistry",
    "Observer",
    "RingSink",
    "TeeSink",
    "account_metrics",
    "load_jsonl",
    "machine_metrics",
    "snapshot_delta",
    "txstats_metrics",
]
