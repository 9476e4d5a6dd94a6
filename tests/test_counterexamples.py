"""One counterexample form: every fuzz, chaos and explore failure is an
explorer deviation list (docs/checking.md, "Counterexamples").

* A randomized run's recorded schedule replays through
  :func:`repro.check.explore.replay` to the same verdict, so the
  deviation list is a faithful name for any case.
* :func:`repro.check.fuzz.shrink` takes a random or a pct failure to a
  1-minimal list that still fails under the same oracle.
* Every failure ``check``, ``chaos`` and ``explore`` print ends in one
  ``explore --replay ... --seed S`` line that, run verbatim, fails again
  under the same oracle; a failure no schedule names ends in a line that
  reruns its cell.
"""

import re

import pytest

import repro.check.fuzz as fuzz
from repro.check.explore import replay
from repro.check.fuzz import run_case, shrink
from repro.cli import main
from repro.sim.schedule import (
    RecordingPolicy,
    make_policy,
    schedule_deviations,
)

#: A slice of the replay-equality sweep, ``(fault, program, config,
#: policy, seed)``: randomized and pct schedules across the configs, two
#: chaos kinds at ``det``, drop-requeue, and two ``+broken`` variants
#: whose failures only some schedules reach.
REPLAY_SLICE = [
    (None, "counter", "lazy-wb-assoc", "random", 1),
    (None, "bank", "eager-wb", "random", 2),
    (None, "litmus-sb", "lazy-wb-mt", "pct", 1),
    (None, "condsync", "lazy-wb-mt", "pct", 2),
    (None, "writeskew", "eager-undo", "random", 2),
    (None, "atomicity", "lazy-timing-msi", "random", 1),
    (None, "nestedopen", "lazy-wb-assoc", "pct", 1),
    ("spurious-violation", "iochaos", "eager-wb", "det", 1),
    ("token-loss", "counter", "lazy-wb-mt", "det", 2),
    ("drop-requeue", "requeue", "lazy-wb-assoc", "random", 3),
    ("watch-drop+broken", "writeskew", "lazy-wb-assoc", "random", 3),
    ("spurious-violation+broken", "litmus-inc", "lazy-wb-assoc", "pct", 1),
]

#: Failures whose det schedule passes, with the 1-minimal deviation
#: list each shrinks to: ``(fault, program, config, policy, seed,
#: shrunk)``.
SHRINK_CASES = [
    ("watch-drop+broken", "writeskew", "lazy-wb-assoc", "random", 3,
     [(27, 1), (28, 1)]),
    ("spurious-violation+broken", "litmus-inc", "lazy-wb-assoc", "pct", 1,
     [(12, 1), (13, 1), (14, 1)]),
]


def _oracles(violations):
    return {violation.oracle for violation in violations}


@pytest.mark.parametrize("fault,program,config,policy,seed", REPLAY_SLICE)
def test_recorded_schedule_replays_to_the_same_verdict(
        monkeypatch, fault, program, config, policy, seed):
    policies = []

    def recording(name, seed=0, **kwargs):
        policies.append(make_policy(name, seed=seed, **kwargs))
        return policies[-1]

    monkeypatch.setattr(fuzz, "make_policy", recording)
    result = run_case(program, config, policy, seed, fault=fault)
    assert not result.skipped
    (used,) = policies
    deviations = ()
    if isinstance(used, RecordingPolicy):
        deviations = schedule_deviations(used.schedule)
        assert deviations, "a randomized run that never deviated"
    if result.failed:
        assert result.deviations == deviations
    verdict = replay(program, config, deviations, fault=fault, seed=seed)
    assert ([str(v) for v in verdict.violations]
            == [str(v) for v in result.violations])
    assert verdict.n_committed == result.n_committed
    assert verdict.divergences == ()


def test_passing_cases_ship_no_schedule():
    result = run_case("counter", "lazy-wb-assoc", "random", 1)
    assert not result.failed
    assert result.schedule == b"" and result.deviations == ()
    assert result.n_steps > 0


@pytest.mark.parametrize("fault,program,config,policy,seed,shrunk",
                         SHRINK_CASES)
def test_failures_shrink_to_a_one_minimal_list(fault, program, config,
                                               policy, seed, shrunk):
    assert not run_case(program, config, "det", seed, fault=fault).failed
    failure = run_case(program, config, policy, seed, fault=fault)
    assert failure.failed
    deviations, verdict = shrink(failure)
    assert deviations == shrunk
    assert len(deviations) < len(failure.deviations)
    oracles = _oracles(failure.violations)
    assert _oracles(verdict.violations) & oracles
    again = replay(program, config, deviations, fault=fault, seed=seed)
    assert _oracles(again.violations) & oracles
    for index in range(len(deviations)):
        fewer = deviations[:index] + deviations[index + 1:]
        trial = replay(program, config, fewer, fault=fault, seed=seed)
        assert not _oracles(trial.violations) & oracles, fewer


def test_shrink_reports_a_failure_its_schedule_does_not_reproduce():
    failure = run_case("counter", "lazy-wb-assoc", "det", 1)
    failure.violations = [fuzz.OracleViolation("lost-wakeup", "staged")]
    deviations, verdict = shrink(failure)
    assert (deviations, verdict) == ([], None)


_VIOLATION = re.compile(r"^  \[([\w-]+)\]", re.MULTILINE)


@pytest.mark.parametrize("argv", [
    ["check", "--programs", "requeue", "--configs", "lazy-wb-assoc",
     "--policies", "random", "--seeds", "3", "--inject-fault",
     "drop-requeue"],
    ["check", "--programs", "writeskew", "--configs", "lazy-wb-assoc",
     "--policies", "random", "--seeds", "3", "--inject-fault",
     "watch-drop+broken"],
    ["chaos", "--faults", "handler-reentry+broken", "--programs",
     "requeue", "--configs", "lazy-wb-assoc", "--seeds", "1"],
    ["explore", "--programs", "atomicity", "--inject-fault",
     "spurious-violation+broken", "--preemption-bound", "0",
     "--seed", "2"],
], ids=["check", "check-deviating", "chaos", "explore-seed-2"])
def test_every_printed_replay_line_reproduces_its_failure(argv, capsys):
    assert main(argv) == 1
    blocks = [block for block in capsys.readouterr().out.split("\n\n")
              if "replay with:" in block]
    assert blocks
    for block in blocks:
        line = block.strip().splitlines()[-1].strip()
        words = line.split()
        assert words[:5] == ["python", "-m", "repro", "explore", "--replay"]
        assert words[-2:-1] == ["--seed"], line
        assert main(words[3:]) == 1, line
        replayed = capsys.readouterr().out
        assert (set(_VIOLATION.findall(block))
                & set(_VIOLATION.findall(replayed))), line


def test_faulted_check_names_each_failure_by_its_policy(capsys):
    assert main(["check", "--programs", "requeue", "--configs",
                 "lazy-wb-assoc", "--seeds", "3", "--inject-fault",
                 "drop-requeue"]) == 1
    out = capsys.readouterr().out
    assert "drop-requeue:requeue:lazy-wb-assoc:det:3: FAILED" in out
    assert "drop-requeue:requeue:lazy-wb-assoc:random:3: FAILED" in out


def test_a_case_that_never_ran_gets_its_cell_command(monkeypatch, capsys):
    def crash(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(fuzz, "run_case", crash)
    assert main(["check", "--programs", "counter", "--configs",
                 "lazy-wb-assoc", "--policies", "pct", "--seeds", "1",
                 "--inject-fault", "token-loss", "--timeout", "30"]) == 1
    out = capsys.readouterr().out
    assert "--replay" not in out
    assert out.rstrip().endswith(
        "python -m repro check --programs counter --configs lazy-wb-assoc "
        "--policies pct --seeds 1 --inject-fault token-loss --timeout 30")


def test_a_failure_that_does_not_replay_gets_its_cell_command(
        monkeypatch, capsys):
    monkeypatch.setattr(fuzz, "shrink", lambda failure: ([], None))
    assert main(["chaos", "--faults", "handler-reentry+broken",
                 "--programs", "requeue", "--configs", "lazy-wb-assoc",
                 "--seeds", "1"]) == 1
    out = capsys.readouterr().out
    assert "--replay" not in out
    assert out.rstrip().endswith(
        "python -m repro check --programs requeue --configs lazy-wb-assoc "
        "--policies det --seeds 1 --inject-fault handler-reentry+broken")
