"""Fuzz-smoke regression: a small slice of the schedule-exploration
fuzzer runs on every test invocation.

Two guarantees, per the checking design (docs/checking.md):

* the shipped runtime passes a randomized-schedule sweep of the condsync
  producer/consumer workload (3 seeds x 2 policies, default config) well
  inside a minute, with zero oracle violations;
* the oracles have *teeth*: re-introducing the DESIGN.md §6b.2
  violation-record re-queue bug (via the ``requeue_enabled`` test hook)
  is caught by the lost-wakeup oracle, deterministically, and the
  failure replays as an explorer deviation list.
"""

import time

import pytest

from repro.check import PROGRAMS, run_case, shrink, summarize, sweep
from repro.check.explore import replay

SMOKE_BUDGET_SECONDS = 60


def test_condsync_fuzz_smoke_is_clean_and_fast():
    start = time.monotonic()
    for seed in (1, 2, 3):
        for policy in ("random", "pct"):
            result = run_case("condsync", "lazy-wb-assoc", policy, seed)
            assert not result.skipped
            assert not result.failed, str(result)
            assert result.n_committed > 0
    assert time.monotonic() - start < SMOKE_BUDGET_SECONDS


def test_every_program_passes_one_deterministic_case():
    for name in sorted(PROGRAMS):
        for config in ("lazy-wb-assoc", "eager-wb"):
            result = run_case(name, config, "det", 1)
            assert result.skipped or not result.failed, str(result)


def test_sweep_summary_counts():
    results = sweep(programs=["counter"], configs=["lazy-wb-assoc"],
                    policies=("det", "random"), seeds=2)
    n_run, n_skipped, failures = summarize(results)
    assert (n_run, n_skipped, failures) == (4, 0, [])


def test_drop_requeue_fault_is_caught_with_a_replayable_case():
    result = run_case("requeue", "lazy-wb-assoc", "det", 1,
                      fault="drop-requeue")
    assert result.failed
    assert [v.oracle for v in result.violations] == ["lost-wakeup"]
    assert "cpu(s) [0]" in str(result.violations[0])
    assert result.name == "drop-requeue:requeue:lazy-wb-assoc:det:1"
    # Replaying the advertised schedule reproduces the identical failure.
    again = replay("requeue", "lazy-wb-assoc", result.deviations,
                   fault="drop-requeue", seed=1)
    assert ([str(v) for v in again.violations]
            == [str(v) for v in result.violations])


def test_requeue_program_passes_without_the_fault():
    result = run_case("requeue", "lazy-wb-assoc", "det", 1)
    assert not result.failed, str(result)
    assert not result.error


def test_pct_failures_shrink_to_replayable_deviations():
    failure = run_case("requeue", "lazy-wb-assoc", "pct", 1,
                       fault="drop-requeue")
    assert failure.failed
    deviations, minimal = shrink(failure)
    assert minimal.failed
    # The shrunk deviation list replays the failure on its own.
    again = replay("requeue", "lazy-wb-assoc", deviations,
                   fault="drop-requeue", seed=1)
    assert again.failed


def test_unknown_fault_and_program_are_rejected():
    with pytest.raises(ValueError):
        run_case("counter", "lazy-wb-assoc", "det", 1, fault="no-such")
    with pytest.raises(ValueError):
        run_case("no-such-program", "lazy-wb-assoc", "det", 1)
