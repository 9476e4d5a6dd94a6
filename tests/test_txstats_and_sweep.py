"""Tests: the per-transaction statistics collector and the sweep harness."""


from repro.common.params import functional_config, paper_config
from repro.harness.sweep import (
    format_speedup_curve,
    speedup_curve,
)
from repro.harness.txstats import TxStatsCollector, format_tx_character
from repro.runtime.core import Runtime
from repro.sim.engine import Machine

BASE = 0x17_0000


def build(n_cpus=2):
    machine = Machine(functional_config(n_cpus=n_cpus))
    runtime = Runtime(machine)
    return machine, runtime


class TestTxStatsCollector:
    def test_records_commit_kinds_and_sizes(self):
        machine, runtime = build(1)

        def inner(t):
            yield t.store(BASE + 0x100, 1)

        def open_body(t):
            yield t.store(BASE + 0x200, 2)

        def outer(t):
            yield t.load(BASE)
            yield t.store(BASE + 0x300, 3)
            yield from runtime.atomic(t, inner)
            yield from runtime.atomic_open(t, open_body)
            yield t.alu(50)

        def program(t):
            yield from runtime.atomic(t, outer)

        with TxStatsCollector(machine) as collector:
            runtime.spawn(program)
            machine.run()
        kinds = sorted(r.kind for r in collector.records)
        assert kinds == ["closed", "open", "outer"]
        outer_rec = collector.of_kind("outer")[0]
        closed_rec = collector.of_kind("closed")[0]
        assert outer_rec.level == 1 and closed_rec.level == 2
        # the outer accumulated the merged child line plus its own
        assert outer_rec.write_units >= 2
        assert outer_rec.duration > closed_rec.duration
        assert outer_rec.duration >= 50

    def test_restarted_transaction_duration_measured_from_restart(self):
        machine, runtime = build(2)

        def victim(t):
            def body(t):
                value = yield t.load(BASE)
                yield t.alu(300)
                return value

            yield from runtime.atomic(t, body)

        def attacker(t):
            yield t.alu(50)

            def body(t):
                yield t.store(BASE, 1)

            yield from runtime.atomic(t, body)

        with TxStatsCollector(machine) as collector:
            runtime.spawn(victim, cpu_id=0)
            runtime.spawn(attacker, cpu_id=1)
            machine.run()
        victim_commit = [r for r in collector.of_kind("outer")
                         if r.cpu == 0][0]
        # The committed attempt began at the restart, not at cycle ~0:
        # its duration is one body's worth, not the whole run.
        assert victim_commit.duration < machine.now - 300

    def test_summary_and_formatting(self):
        machine, runtime = build(1)

        def body(t):
            yield t.store(BASE, 1)

        def program(t):
            for _ in range(3):
                yield from runtime.atomic(t, body)

        with TxStatsCollector(machine) as collector:
            runtime.spawn(program)
            machine.run()
        summary = collector.summary("outer")
        assert summary.count == 3
        assert summary.mean_writes == 1.0
        assert summary.max_level == 1
        text = format_tx_character([("demo", summary)])
        assert "demo" in text and "3" in text
        empty = collector.summary("open")
        assert empty.count == 0

    def test_detach_restores(self):
        machine, runtime = build(1)
        collector = TxStatsCollector(machine)
        collector.detach()
        collector.detach()

        def body(t):
            yield t.store(BASE, 1)

        def program(t):
            yield from runtime.atomic(t, body)

        runtime.spawn(program)
        machine.run()
        assert collector.records == []   # nothing recorded after detach

    def test_flattened_commits_not_recorded_as_nested(self):
        machine = Machine(functional_config(n_cpus=1, flatten=True))
        runtime = Runtime(machine)

        def inner(t):
            yield t.store(BASE, 1)

        def outer(t):
            yield from runtime.atomic(t, inner)

        def program(t):
            yield from runtime.atomic(t, outer)

        with TxStatsCollector(machine) as collector:
            runtime.spawn(program)
            machine.run()
        assert [r.kind for r in collector.records] == ["outer"]


class TestSweep:
    def test_speedup_curve_monotone_for_parallel_work(self):
        from repro.workloads import SwimKernel

        points = speedup_curve(
            lambda n: SwimKernel(n_threads=n, scale=0.5),
            cpu_counts=(1, 2, 4))
        assert points[0].speedup == 1.0
        assert points[1].speedup > 1.3
        assert points[2].speedup > points[1].speedup
        text = format_speedup_curve(points, "swim")
        assert "swim" in text and "1.00x" in text


class TestExport:
    def test_comparison_roundtrip(self, tmp_path):
        import json

        from repro.harness.experiment import NestingComparison
        from repro.harness.export import comparison_to_dict, dump_json

        comparison = NestingComparison("demo", 100, 60, 30)
        payload = comparison_to_dict(comparison)
        assert payload["improvement"] == 2.0
        out = tmp_path / "figure5.json"
        dump_json([payload], str(out))
        loaded = json.loads(out.read_text())
        assert loaded[0]["name"] == "demo"

    def test_scaling_and_profile_export(self):
        from repro.harness.experiment import ScalingPoint
        from repro.harness.export import (
            profile_to_dict,
            rows_to_csv,
            scaling_to_dicts,
        )
        from repro.harness.profile import profile_machine
        from repro.workloads import SwimKernel
        from repro.common.params import paper_config

        dicts = scaling_to_dicts([ScalingPoint(2, 100, 20)])
        assert dicts[0]["throughput"] == 200.0
        machine = SwimKernel(n_threads=2, scale=0.25).run(
            paper_config(n_cpus=2))
        payload = profile_to_dict(profile_machine(machine))
        assert payload["commits_outer"] > 0
        text = rows_to_csv(["a", "b"], [[1, 2]])
        assert "a,b" in text and "1,2" in text

    def test_cli_figure5_json(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "f5.json"
        code = main(["figure5", "--cpus", "2", "--scale", "0.25",
                     "--json", str(out)])
        assert code == 0
        import json

        data = json.loads(out.read_text())
        assert any(entry["name"] == "mp3d" for entry in data)


class TestApiDocsGenerator:
    def test_generator_produces_markdown(self):
        import sys
        sys.path.insert(0, "tools")
        try:
            import gen_api_docs

            text = gen_api_docs.generate()
        finally:
            sys.path.pop(0)
        assert text.startswith("# API index")
        assert "repro.htm.system" in text
        assert "HtmSystem" in text
