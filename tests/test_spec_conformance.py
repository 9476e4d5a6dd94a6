"""The differential conformance suite: simulator vs. reference semantics.

The abstract executor (:mod:`repro.spec`) runs the same check programs
under atomic, instantaneous transactions over flat sequential memory.
This file pins the three contracts the spec adds to the oracle battery:

* **Replay conformance** — every fault-free and recoverable-fault run
  of a spec-supported program replays cleanly against the reference
  (:func:`repro.spec.replay.check_conformance` reports nothing).
* **Broken-fault detection** — every seeded ``+broken`` variant that
  corrupts committed state is flagged as a spec disagreement (the one
  exception, ``handler-reentry+broken``, only manifests on the
  spec-unsupported ``requeue`` program and is covered by the
  lost-wakeup oracle; docs/conformance.md documents the boundary).
* **Drain equality** — an exhaustive explorer drain of a litmus program
  observes *exactly* the spec-enumerated admissible outcome set.
"""

import pytest

from repro.check.explore import explore, search_failure, search_spec
from repro.check.fuzz import FAST_CONFIGS, run_case
from repro.check.programs import LITMUS_PROGRAMS, PROGRAMS
from repro.spec import conform
from repro.spec.conform import LITMUS_DEPTHS, gate_drain
from repro.spec.outcomes import spec_outcomes
from repro.spec.replay import freeze

SUPPORTED = sorted(
    name for name, cls in PROGRAMS.items()
    if getattr(cls, "spec_supported", False))


# ----------------------------------------------------------------------
# Replay conformance, fault-free
# ----------------------------------------------------------------------


@pytest.mark.parametrize("config", FAST_CONFIGS)
@pytest.mark.parametrize("program", SUPPORTED)
def test_fault_free_runs_conform(program, config):
    result = run_case(program, config, "random", 1)
    if result.skipped:
        pytest.skip(f"{program} unsupported on {config}")
    assert not result.violations, str(result)


def test_every_litmus_program_is_registered():
    assert set(LITMUS_PROGRAMS) == set(LITMUS_DEPTHS)
    for name in LITMUS_PROGRAMS:
        assert name in PROGRAMS


# ----------------------------------------------------------------------
# Replay conformance under recoverable faults
# ----------------------------------------------------------------------

RECOVERABLE_CELLS = [
    ("spurious-violation", "counter"),
    ("delayed-violation", "counter"),
    ("delayed-violation", "atomicity"),
    ("token-loss", "bank"),
    ("validated-abort", "nestedopen"),
    ("watch-drop", "compensation"),
    ("io-fault", "iochaos"),
    ("alloc-pressure", "iochaos"),
]


@pytest.mark.parametrize("fault,program", RECOVERABLE_CELLS,
                         ids=[f"{f}-{p}" for f, p in RECOVERABLE_CELLS])
def test_recoverable_fault_runs_conform(fault, program):
    result = run_case(program, "lazy-wb-assoc", "det", 1, fault=fault)
    assert not result.skipped
    conformance = [v for v in result.violations
                   if v.oracle == "conformance"]
    assert not conformance, str(result)


def test_delayed_violation_never_straddles_a_commit():
    """Regression: the recoverable delayed-violation hold-back used to
    apply to victims that had already validated, landing the delivery
    past the commit — a stale transaction committed, which only the
    ``+broken`` variant is allowed to do.  atomicity/lazy-wb-assoc/det/1
    is the schedule that exposed it (a reader validated at the cycle a
    conflicting nontx writer committed)."""
    result = run_case("atomicity", "lazy-wb-assoc", "det", 1,
                      fault="delayed-violation")
    assert not result.skipped
    # The fixed sink delivers immediately at that point (no hold-back
    # is recorded), so the pin is the clean verdict itself.
    assert not result.violations, str(result)


# ----------------------------------------------------------------------
# Broken-fault detection
# ----------------------------------------------------------------------

BROKEN_CELLS = [
    ("spurious-violation+broken", "counter", None),
    ("delayed-violation+broken", "counter", None),
    ("token-loss+broken", "counter", 60_000),
    ("validated-abort+broken", "counter", None),
    ("watch-drop+broken", "counter", None),
    ("io-fault+broken", "iochaos", None),
    ("alloc-pressure+broken", "iochaos", None),
]


@pytest.mark.parametrize("fault,program,max_cycles", BROKEN_CELLS,
                         ids=[c[0] for c in BROKEN_CELLS])
def test_broken_variant_is_a_spec_disagreement(fault, program,
                                               max_cycles):
    result = run_case(program, "lazy-wb-assoc", "det", 1, fault=fault,
                      max_cycles=max_cycles)
    assert not result.skipped
    assert result.n_injections > 0
    oracles = {v.oracle for v in result.violations}
    assert "conformance" in oracles, (
        f"expected a spec disagreement for {fault}, got "
        f"{sorted(oracles)}: {result}")


# ----------------------------------------------------------------------
# Spec-enumerated admissible sets (pure spec, no simulator)
# ----------------------------------------------------------------------


def _reads(outcome_set):
    return {dict(o)["reads"] for o in outcome_set}


def test_litmus_sb_admissible_set():
    # One transaction per thread {store mine; load other}: some thread
    # serializes first and reads 0, the other reads 1.  (0,0) — the
    # relaxed-memory store-buffering anomaly — is inadmissible.
    assert _reads(spec_outcomes("litmus-sb")) == {(0, 1), (1, 0)}


def test_litmus_lb_admissible_set():
    # {load other; store mine}: the first transaction reads 0, the
    # second reads 1.  Both (0,0) and the causality-violating (1,1)
    # are inadmissible.
    assert _reads(spec_outcomes("litmus-lb")) == {(0, 1), (1, 0)}


def test_litmus_corr_admissible_set():
    # Two successive reads of x against one writer of x=1: reads may
    # straddle the write, but never run backwards (1 then 0).
    assert _reads(spec_outcomes("litmus-corr")) == {
        (0, 0), (0, 1), (1, 1)}


def test_litmus_mp_admissible_set():
    # Message passing: flag observed set implies the payload is visible.
    assert _reads(spec_outcomes("litmus-mp")) == {(0, 0), (1, 42)}


def test_litmus_inc_admissible_set():
    outcomes = spec_outcomes("litmus-inc")
    assert outcomes == {freeze({"counter": 2})}


def test_litmus_token_handoff_admissible_set():
    # The consumer blocks until woken after the publish: one outcome.
    outcomes = spec_outcomes("litmus-token-handoff")
    assert outcomes == {freeze({"mem": [1], "reads": [1]})}


# ----------------------------------------------------------------------
# Drain equality: exhaustive explore == spec enumeration
# ----------------------------------------------------------------------

# The full six-program drain runs in the conform CLI and CI; here two
# representatives keep the tier-1 wall clock small: the cheapest drain
# (token-handoff, 3 schedules) and a contended one (mp, ~500).
DRAIN_SAMPLE = ("litmus-token-handoff", "litmus-mp")


def _drain(program, **kwargs):
    """``program``'s conform drain on lazy-wb-assoc (seed 1)."""
    kwargs.setdefault("max_depth", LITMUS_DEPTHS[program])
    return explore(program, "lazy-wb-assoc", preemption_bound=None,
                   **kwargs)


@pytest.mark.parametrize("program", DRAIN_SAMPLE)
def test_exhaustive_drain_equals_admissible_set(program):
    report = _drain(program)
    assert gate_drain(report) is None
    assert not report.failures, report.summary()
    outcomes = {v.outcome for v in report.verdicts}
    assert len(outcomes) == len(spec_outcomes(program))


def _gated(report):
    """The gate's problem lines on ``report``, checked to form one
    ``conformance`` verdict of no steps that names the drain."""
    failure = gate_drain(report)
    assert failure.n_steps == 0 and failure.policy is None
    where = f"drain {report.program}:{report.config}: "
    assert all(v.oracle == "conformance" and v.detail.startswith(where)
               for v in failure.violations)
    return [v.detail[len(where):] for v in failure.violations]


def test_gate_flags_a_drain_too_shallow_to_cover_the_outcomes():
    # At depth 2 no branch reaches the point where sb's threads race,
    # so one admissible outcome is never observed.
    problems = _gated(_drain("litmus-sb", max_depth=2))
    assert problems
    assert all(p.startswith("admissible outcome never observed: ")
               for p in problems)


def test_gate_flags_a_truncated_drain():
    problems = _gated(_drain("litmus-sb", max_schedules=3))
    assert problems[0] == "drain truncated; not exhaustive"


def test_gate_flags_an_outcome_outside_the_admissible_set(monkeypatch):
    real = spec_outcomes("litmus-sb")
    dropped = min(real, key=repr)
    monkeypatch.setattr(conform, "spec_outcomes",
                        lambda program, seed=1: real - {dropped})
    problems = _gated(_drain("litmus-sb"))
    assert problems == [
        f"outcome outside the admissible set: {dropped!r}"]


def test_gate_skips_cells_and_failed_units():
    # A crashed drain is judged by its run-failure verdict alone, not
    # also by the outcomes it never got to see.
    cell = explore("litmus-sb", "lazy-wb-assoc", policy="det")
    crashed = search_failure(
        search_spec("litmus-sb", "lazy-wb-assoc", preemption_bound=None,
                    max_depth=LITMUS_DEPTHS["litmus-sb"]),
        "worker crashed (exit code -9)")
    assert gate_drain(cell) is gate_drain(crashed) is None
