"""Golden-number regression tests.

Every simulation is deterministic, so key experiment quantities can be
pinned within a tolerance band: an accidental change to engine timing,
conflict handling, or the runtime sequences shows up here before it
silently warps the reproduced figures.  The bands are deliberately wide
(±25%) so deliberate re-tuning rarely trips them; the *relationships*
(asserted by the benchmarks) are the real contract.
"""

import pytest

from repro.common.params import paper_config
from repro.workloads import JbbWorkload, Mp3dKernel, SwimKernel

#: (workload factory, config overrides, expected cycles)
GOLDEN = [
    ("swim seq", lambda: SwimKernel(n_threads=1), dict(n_cpus=1), 166_515),
    ("swim nested x8", lambda: SwimKernel(n_threads=8), dict(n_cpus=8),
     29_653),
    ("mp3d nested x8", lambda: Mp3dKernel(n_threads=8), dict(n_cpus=8),
     56_561),
    ("mp3d flat x8", lambda: Mp3dKernel(n_threads=8),
     dict(n_cpus=8, flatten=True), 133_112),
    ("jbb-closed x8", lambda: JbbWorkload(n_threads=8), dict(n_cpus=8),
     78_049),
]

TOLERANCE = 0.25


@pytest.mark.parametrize("name,factory,overrides,expected",
                         GOLDEN, ids=[g[0] for g in GOLDEN])
def test_golden_cycles(name, factory, overrides, expected):
    machine = factory().run(paper_config(**overrides))
    cycles = machine.stats.get("cycles")
    low = expected * (1 - TOLERANCE)
    high = expected * (1 + TOLERANCE)
    assert low <= cycles <= high, (
        f"{name}: {cycles} cycles, golden {expected} (±25%). If this "
        "change is intentional, refresh GOLDEN and EXPERIMENTS.md.")


def test_determinism_of_golden_runs():
    """The golden runs are bit-for-bit reproducible."""
    first = Mp3dKernel(n_threads=4).run(
        paper_config(n_cpus=4)).stats.get("cycles")
    second = Mp3dKernel(n_threads=4).run(
        paper_config(n_cpus=4)).stats.get("cycles")
    assert first == second


# ---------------------------------------------------------------------------
# Exact pins (no tolerance band)
# ---------------------------------------------------------------------------
#
# Unlike the ±25% bands above, these cells must match the bench goldens
# *exactly*: the hot-path optimizations (reverse conflict index, scoped
# counters, heap-backed ready queue — see docs/performance.md) promise to
# change no observable cycle, so any scheduler/stats/detector change that
# perturbs a schedule fails loudly here.  Refresh with
# ``python -m repro bench --update-golden`` only for an *intentional*
# behaviour change, and say why in the commit.

EXACT_CELLS = [
    ("swim-lazy-x4",
     lambda: SwimKernel(n_threads=4), dict(n_cpus=4, detection="lazy")),
    ("mp3d-eager-x4",
     lambda: Mp3dKernel(n_threads=4), dict(n_cpus=4, detection="eager")),
]


@pytest.mark.parametrize("cell_id,factory,overrides",
                         EXACT_CELLS, ids=[c[0] for c in EXACT_CELLS])
def test_exact_cycle_pins_match_bench_goldens(cell_id, factory, overrides):
    from repro.harness.bench import load_golden

    golden = load_golden()
    assert cell_id in golden, (
        f"{cell_id} missing from bench_golden.json; run "
        "`python -m repro bench --update-golden`")
    machine = factory().run(paper_config(**overrides))
    assert machine.stats.get("cycles") == golden[cell_id]


def test_exact_cycle_pin_flagship_detstress():
    """The bench flagship (16-CPU eager, deep nesting) pinned exactly,
    on the indexed-detector path the simulator always uses."""
    from repro.harness.bench import (
        FLAGSHIP_CPUS,
        FLAGSHIP_ID,
        _flagship_config,
        load_golden,
        run_cell,
    )
    from repro.workloads import DetectionStressKernel

    golden = load_golden()
    assert FLAGSHIP_ID in golden
    result = run_cell(
        lambda: DetectionStressKernel(n_threads=FLAGSHIP_CPUS),
        _flagship_config())
    assert result["cycles"] == golden[FLAGSHIP_ID]


def test_update_golden_writes_nothing_after_a_failed_cell(
        tmp_path, monkeypatch):
    """A crashed cell must never become a ``null`` golden: with any
    error on the run, ``--update-golden`` leaves the file untouched and
    reports the error."""
    from repro.harness import bench

    golden_path = tmp_path / "bench_golden.json"
    with open(bench.GOLDEN_PATH, "rb") as fh:
        golden_path.write_bytes(fh.read())
    before = golden_path.read_bytes()
    monkeypatch.setattr(bench, "GOLDEN_PATH", str(golden_path))
    real_runner = bench.run_cell_by_id

    def runner(cell_id):
        if cell_id == "swim-eager-x4":
            raise RuntimeError("injected cell crash")
        return real_runner(cell_id)

    monkeypatch.setattr(bench, "run_cell_by_id", runner)
    lines = []
    results, errors = bench.run_bench(
        smoke=True, update_golden=True, report=lines.append)
    assert golden_path.read_bytes() == before
    assert errors == ["swim-eager-x4: RuntimeError: injected cell crash"]
    assert not results["ok"]
    assert any("NOT written" in line for line in lines)
