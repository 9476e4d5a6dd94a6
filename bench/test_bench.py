"""Tests of the benchmark itself: ``pytest bench`` from the repo root."""

from __future__ import annotations

import copy
import json

import pytest

import run  # first: it puts the simulator's src/ on sys.path
import cases
import layers
from repro.isa.context import Cpu


def _result_line(capsys, monkeypatch, tmp_path, trace):
    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path))
    status = run.main(["--workload", "detstress", "--seed", "2",
                       "--seconds", "0.1", "--trace", str(trace)])
    assert status == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_emitted_names_match_benchmark_json(capsys, monkeypatch, tmp_path):
    benchmark = run.load_benchmark()
    assert [w["name"] for w in benchmark["workloads"]] == list(
        cases.WORKLOADS)
    for trace, table in ((0, "end_to_end"), (1, "per_layer")):
        line = _result_line(capsys, monkeypatch, tmp_path, trace)
        assert line["correct"] and line["failed"] == 0
        assert line["attempted"] >= 1
        emitted = {name: m["unit"] for name, m in line["metrics"].items()}
        declared = {m["name"]: m["unit"] for m in benchmark[table]}
        assert emitted == declared
        assert list(line["metrics"]) == [m["name"] for m in benchmark[table]]


def test_trace_restores_every_patch_and_perturbs_nothing():
    untraced = [case.run() for case in cases.pass_cases("paper", 1)]
    with layers.LayerTrace() as trace:
        traced = [case.run() for case in cases.pass_cases("paper", 1)]
        _, machine = cases.pass_cases("detstress", 1)[0].build()
    assert trace.patched()
    for owner, attr, original in trace.patched():
        assert vars(owner)[attr] is original, (owner, attr)
    for cpu in machine.cpus:
        assert cpu.execute.__func__ is Cpu._execute_step
    assert [(r.name, r.cycles, r.steps) for r in traced] == [
        (r.name, r.cycles, r.steps) for r in untraced]
    assert not any(r.failures for r in traced + untraced)
    assert trace.calls["isa.execute"] and trace.calls["memsys.access"]


def _record(tmp_path, name, steps_per_s):
    metrics = {
        "steps_per_s": {"value": steps_per_s, "unit": "steps/s",
                        "q1": steps_per_s * 0.99, "q3": steps_per_s * 1.01,
                        "n": 9},
        "setup_s": {"value": 0.3, "unit": "s", "q1": 0.29, "q3": 0.31,
                    "n": 3},
    }
    path = tmp_path / name
    path.write_text(json.dumps({"workloads": {"detstress": {
        "metrics": copy.deepcopy(metrics), "attempted": 10, "failed": 0}}}))
    return str(path)


def test_compare_passes_identical_and_flags_a_regression(tmp_path):
    bound = next(m["bound"] for m in run.load_benchmark()["end_to_end"]
                 if m["name"] == "steps_per_s")
    a = _record(tmp_path, "a.json", 200_000.0)
    lines = []
    assert run.compare(a, _record(tmp_path, "b.json", 200_000.0),
                       report=lines.append) == 0
    assert not any("REGRESSED" in line for line in lines)
    lines.clear()
    dropped = 200_000.0 * (1 - bound - 0.05)
    assert run.compare(a, _record(tmp_path, "c.json", dropped),
                       report=lines.append) == 1
    assert any(line.startswith("steps_per_s") and "REGRESSED" in line
               for line in lines)


@pytest.mark.parametrize("workload", cases.WORKLOADS)
def test_every_workload_builds_its_warmup_case(workload):
    warm = cases.warmup_case(workload, 1)
    result = warm.finish(warm.build())
    assert not result.failures and result.cycles > 0
