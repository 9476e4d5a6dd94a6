"""CLI error paths: bad names, bad policies, conflicting flags.

Every checking subcommand validates its comma-separated selectors with
a loud usage error (exit 2) naming the unknown entry and the universe to
pick from — a typo must never silently run an empty (vacuously green)
campaign, and exit 1 stays reserved for "a failure was found".  The
``conform`` subcommand additionally rejects flag combinations that
would select nothing, and ``explore --replay`` a schedule name that does
not take effect.
"""

import pytest

from repro.cli import main


def _exit_message(argv, capsys):
    """The usage error ``argv`` exits with (status 2)."""
    assert main(argv) == 2
    return capsys.readouterr().err


class TestCheckErrors:
    def test_bad_program_name(self, capsys):
        message = _exit_message(["check", "--programs", "no-such-prog"],
                                capsys)
        assert "no-such-prog" in message
        assert "counter" in message  # the universe is named

    def test_bad_config_name(self, capsys):
        message = _exit_message(["check", "--configs", "sparc-v9"], capsys)
        assert "sparc-v9" in message

    def test_bad_policy_name(self, capsys):
        message = _exit_message(["check", "--policies", "fifo"], capsys)
        assert "fifo" in message
        assert "det" in message

    def test_bad_fault_choice_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit):
            main(["check", "--inject-fault", "cosmic-ray"])
        assert "cosmic-ray" in capsys.readouterr().err


class TestChaosErrors:
    def test_bad_fault_name(self, capsys):
        message = _exit_message(["chaos", "--faults", "gremlins"], capsys)
        assert "gremlins" in message

    def test_bad_program_name(self, capsys):
        message = _exit_message(["chaos", "--programs", "no-such-prog"],
                                capsys)
        assert "no-such-prog" in message


class TestExploreErrors:
    def test_bad_program_name(self, capsys):
        message = _exit_message(["explore", "--programs", "nope"], capsys)
        assert "nope" in message

    def test_malformed_replay(self, capsys):
        assert main(["explore", "--replay", "just-one-part"]) == 2
        assert "deviations" in capsys.readouterr().err

    @pytest.mark.parametrize("name,named", [
        ("no-such:lazy-wb-assoc:det", "no-such"),
        ("litmus-sb:z80:det", "z80"),
        ("gremlins:litmus-sb:lazy-wb-assoc:det", "gremlins"),
    ])
    def test_replay_of_an_unknown_name(self, capsys, name, named):
        message = _exit_message(["explore", "--replay", name], capsys)
        assert named in message

    @pytest.mark.parametrize("deviations,named", [
        ("3@99", "3@99"),              # no CPU 99 to choose
        ("-2@1", "-2@1"),              # no step -2
        ("999999@1", "999999@1"),      # the run ends long before
        ("3@1,3@0", "step 3"),         # one step, two choices
        ("23@1,999999@0", "999999@0"),  # one pair takes effect
    ])
    def test_replay_of_pairs_that_never_take_effect(self, capsys,
                                                    deviations, named):
        message = _exit_message(
            ["explore", "--replay", f"litmus-sb:lazy-wb-assoc:{deviations}",
             "--seed", "1"], capsys)
        assert named in message
        assert "23@1" not in message

    def test_replay_of_effective_pairs_prints_them(self, capsys):
        assert main(["explore", "--replay", "litmus-sb:lazy-wb-assoc:23@1",
                     "--seed", "1"]) == 0
        assert capsys.readouterr().out == (
            "litmus-sb:lazy-wb-assoc:23@1: ok (2 commits, 44 steps)\n")

    def test_node_failure_replays_its_search(self, monkeypatch, capsys):
        """A node that raised (or ran over ``--timeout``) has no
        schedule to shrink: its replay line is the search's command, not
        an ``--replay`` of the deterministic schedule, which passes."""
        import repro.check.explore as explore_mod

        run_node = explore_mod.run_node

        def crash_on_one(*args, **kwargs):
            if kwargs["prefix"] == (1,):
                raise RuntimeError("boom")
            return run_node(*args, **kwargs)

        monkeypatch.setattr(explore_mod, "run_node", crash_on_one)
        assert main(["explore", "--programs", "litmus-sb",
                     "--preemption-bound", "1"]) == 1
        out = capsys.readouterr().out
        assert "[run-failure] node prefix=[1]: RuntimeError: boom" in out
        assert "shrunk" not in out and "--replay" not in out
        assert out.rstrip().endswith(
            "python -m repro explore --programs litmus-sb --configs "
            "lazy-wb-assoc --preemption-bound 1 --max-depth 0 --seed 1 "
            "--max-schedules 20000")


class TestExploreVerbose:
    def test_verbose_prints_checkpoint_stats(self, capsys):
        code = main(["explore", "--programs", "litmus-sb",
                     "--preemption-bound", "1", "--verbose"])
        assert code == 0
        lines = [line.strip() for line in capsys.readouterr().out
                 .splitlines() if line.strip().startswith("checkpoint:")]
        assert len(lines) == 1
        stats = dict(field.split("=")
                     for field in lines[0][len("checkpoint: "):]
                     .split(", "))
        assert sorted(stats) == ["deposits", "fallbacks", "hits",
                                 "misses", "peak_live"]
        assert int(stats["deposits"]) > 0
        assert int(stats["hits"]) == int(stats["deposits"])
        assert int(stats["fallbacks"]) == 0

    def test_verbose_prints_dpor_counters(self, capsys):
        code = main(["explore", "--programs", "litmus-sb",
                     "--preemption-bound", "-1", "--max-depth", "24",
                     "--verbose"])
        assert code == 0
        lines = [line.strip() for line in capsys.readouterr().out
                 .splitlines() if line.strip().startswith("dpor:")]
        assert lines == ["dpor: races=72, backtracks=35, "
                         "window_fallbacks=0"]


class TestConformErrors:
    def test_bad_program_name(self, capsys):
        message = _exit_message(["conform", "--programs", "no-such-prog"],
                                capsys)
        assert "no-such-prog" in message

    def test_bad_config_name(self, capsys):
        message = _exit_message(["conform", "--configs", "z80"], capsys)
        assert "z80" in message

    def test_conflicting_litmus_flags(self, capsys):
        message = _exit_message(
            ["conform", "--litmus-only", "--skip-litmus"], capsys)
        assert "exclude each other" in message


class TestNumbersAndEmptyCampaigns:
    """A numeric option out of range, or a selection of no units, is a
    usage error: never an empty, vacuously green campaign, and never
    every unit failing as a run-failure."""

    @pytest.mark.parametrize("argv,named", [
        (["check", "--seeds", "0"], "--seeds"),
        (["conform", "--seeds", "0", "--skip-litmus"], "--seeds"),
        (["check", "--programs", "counter", "--jobs", "0"], "--jobs"),
        (["chaos", "--programs", "counter", "--jobs", "-1"], "--jobs"),
        (["explore", "--max-schedules", "-1"], "--max-schedules"),
        (["explore", "--max-depth", "-5"], "--max-depth"),
        (["check", "--programs", "counter", "--timeout", "-1"],
         "--timeout"),
        (["explore", "--timeout", "-1"], "--timeout"),
        (["conform", "--litmus-only", "--timeout", "-1"], "--timeout"),
    ])
    def test_out_of_range(self, capsys, argv, named):
        message = _exit_message(argv, capsys)
        assert f"{named} must be at least" in message
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv", [
        # Drains run on lazy configs only.
        ["conform", "--litmus-only", "--configs", "eager-wb"],
        # counter is no litmus program.
        ["conform", "--litmus-only", "--programs", "counter"],
    ])
    def test_a_campaign_of_no_units(self, capsys, argv):
        assert "select nothing" in _exit_message(argv, capsys)

    def test_all_skipped_units_still_run(self, capsys):
        # requeue needs lazy detection: its one case is skipped, and a
        # skipped case counts as run.
        assert main(["check", "--programs", "requeue", "--configs",
                     "eager-wb", "--policies", "det", "--seeds", "1"]) == 0
        assert "0 cases run, 1 skipped, 0 failed" in capsys.readouterr().out


class TestConformFailures:
    """A failing ``conform`` unit prints the line that reproduces it."""

    def test_failing_drain_prints_a_rerun_line(self, capsys, monkeypatch):
        from repro.spec import conform

        # Too shallow to reach sb's race: an outcome is never observed.
        monkeypatch.setitem(conform.LITMUS_DEPTHS, "litmus-sb", 2)
        code = main(["conform", "--programs", "litmus-sb", "--configs",
                     "lazy-wb-assoc", "--litmus-only", "--verbose"])
        assert code == 1
        out = capsys.readouterr().out
        assert "conform: litmus-sb:lazy-wb-assoc:1: FAIL" in out
        assert "1 failed" in out
        # The header names no schedule to replay: the detail says the
        # whole drain failed, and the rerun line reruns it.
        assert ("litmus-sb:lazy-wb-assoc:det: FAILED (0 commits)\n"
                "  [conformance] drain litmus-sb:lazy-wb-assoc: "
                "admissible outcome never observed") in out
        assert ("python -m repro conform --programs litmus-sb "
                "--configs lazy-wb-assoc --litmus-only") in out

    def test_failing_cell_prints_a_replay_line(self, capsys):
        from repro.spec.model import mutated

        with mutated("torn-commit"):
            code = main(["conform", "--programs", "bank", "--configs",
                         "lazy-wb-assoc", "--skip-litmus"])
        assert code == 1
        out = capsys.readouterr().out
        assert "bank:lazy-wb-assoc:det:1: FAILED" in out
        assert ("python -m repro explore --replay bank:lazy-wb-assoc:det "
                "--seed 1") in out


class TestConformSmoke:
    def test_single_cell_runs_clean(self, capsys):
        code = main(["conform", "--programs", "counter",
                     "--configs", "lazy-wb-assoc", "--skip-litmus",
                     "--verbose"])
        assert code == 0
        out = capsys.readouterr().out
        assert "counter:lazy-wb-assoc:1: ok" in out
        assert "0 failed" in out

    def test_litmus_only_drain(self, capsys):
        # One drain per lazy config of the default matrix.
        code = main(["conform", "--programs", "litmus-token-handoff",
                     "--litmus-only", "--verbose"])
        assert code == 0
        out = capsys.readouterr().out
        assert "2 litmus drains" in out
        assert "litmus-token-handoff:lazy-wb-mt:1: ok" in out
        assert "0 failed" in out


class TestExploreDifferentialGate:
    """``--min-checkpoint-speedup``'s comparison of the checkpointed
    sweep against the stateless control."""

    @staticmethod
    def _report(verdicts):
        from repro.check.explore import ExploreReport

        return ExploreReport(program="litmus-sb", config="lazy-wb-assoc",
                             explored=len(verdicts), generations=[1, 1],
                             verdicts=verdicts)

    @staticmethod
    def _verdict(deviations=(), signature=((0, "outer", 3),),
                 outcome=(("r0", 1),)):
        from repro.check.explore import ScheduleVerdict

        return ScheduleVerdict(
            program="litmus-sb", config="lazy-wb-assoc", fault=None,
            seed=1, schedule=deviations, n_committed=2, n_steps=9,
            signature=signature, outcome=outcome)

    def test_identical_sweeps_agree(self):
        from repro.cli import _diff_explore_reports

        a = self._report([self._verdict(), self._verdict(((3, 1),))])
        b = self._report([self._verdict(), self._verdict(((3, 1),))])
        assert _diff_explore_reports([a], [b]) == []

    @pytest.mark.parametrize("change", ["signature", "outcome", "order"])
    def test_flags_what_the_verdict_strings_hide(self, change):
        from repro.cli import _diff_explore_reports

        first, second = self._verdict(), self._verdict(((3, 1),))
        if change == "signature":
            other = [first, self._verdict(((3, 1),),
                                          signature=((1, "outer", 3),))]
        elif change == "outcome":
            other = [first, self._verdict(((3, 1),),
                                          outcome=(("r0", 0),))]
        else:
            other = [second, first]
        a, b = self._report([first, second]), self._report(other)
        # A passing verdict's string is only its name, commits and
        # steps: sorted strings cannot tell these sweeps apart ...
        assert sorted(map(str, a.verdicts)) == sorted(map(str, b.verdicts))
        # ... the gate must.
        mismatches = _diff_explore_reports([a], [b])
        assert mismatches
        field = "name" if change == "order" else change
        assert any(f"verdict {field} differs" in line
                   for line in mismatches)

    def test_flags_generations(self):
        from repro.cli import _diff_explore_reports

        a = self._report([self._verdict()])
        b = self._report([self._verdict()])
        b.generations = [2]
        assert _diff_explore_reports([a], [b]) == [
            "litmus-sb:lazy-wb-assoc: generations [1, 1] != [2]"]
