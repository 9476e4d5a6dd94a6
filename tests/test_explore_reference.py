"""The depth-first explorer against the breadth-first generation loop it
replaced (``tests/reference.py::explore_generations``).

Every search runs depth-first on one stack.  A bounded or unpruned
search visits the same tree of runs the generation loop visited: a
child's sleep set depends only on its parent's sleep set and the
siblings forked before it at the same state, never on the visiting
order.  So only the order changes.  The differential gate below holds
every count and verdict equal on searches that cover the three kinds
of search the loop ran: pruned and checkpointed, stateless, unpruned
(where a child's choice is carried by the stack, not by a restored
snapshot), eager and faulty.

Truncation is where the order shows: a search capped at ``k`` runs
judges exactly the first ``k`` runs of its uncapped enumeration, which
goes depth-first, so it no longer covers every schedule with ``b``
deviations before any with ``b + 1``.
"""

import pytest

from repro.check.explore import explore
from repro.check.programs import LITMUS_PROGRAMS
from tests.reference import explore_generations

CONFIG = "lazy-wb-assoc"

#: (program, config, explore kwargs) of the differential gate.  The
#: fault search is cut at depth 12: each of its runs fails, and every
#: failing verdict replays its schedule to rebuild the trace tail.
SEARCHES = (
    [(program, CONFIG, dict(preemption_bound=2, checkpoint=checkpoint))
     for program in LITMUS_PROGRAMS for checkpoint in (True, False)]
    + [("litmus-sb", CONFIG, dict(preemption_bound=2, prune=False)),
       ("litmus-mp", "eager-wb", dict(preemption_bound=1)),
       ("litmus-mp", "lazy-timing-msi", dict(preemption_bound=2)),
       ("requeue", CONFIG, dict(fault="drop-requeue", preemption_bound=1,
                                max_depth=12))])


def _observed(report):
    """What the two drivers must agree on: the run counts, the
    per-generation counts, the verdicts as a multiset, the work
    counters and the checkpoint counters (``peak_live`` aside: a stack
    holds one path, a frontier a whole generation)."""
    stats = dict(report.checkpoint_stats or {})
    stats.pop("peak_live", None)
    return (report.explored, report.pruned, report.generations,
            report.truncated,
            sorted((v.name, v.failed, v.signature, repr(v.outcome))
                   for v in report.verdicts),
            report.live_steps, report.restored_steps, stats)


@pytest.mark.parametrize(
    "program, config, kwargs", SEARCHES,
    ids=[f"{program}:{config}:{sorted(kwargs.items())}"
         for program, config, kwargs in SEARCHES])
def test_depth_first_equals_generations(program, config, kwargs):
    report = explore(program, config, **kwargs)
    reference = explore_generations(program, config, **kwargs)
    assert not report.truncated
    assert report.explored > 0
    assert _observed(report) == _observed(reference)


@pytest.mark.parametrize("kwargs", [dict(preemption_bound=2),
                                    dict(preemption_bound=2, prune=False)],
                         ids=["bounded", "unpruned"])
def test_capped_search_judges_the_first_runs(monkeypatch, kwargs):
    """A capped search is the uncapped one stopped after ``k`` runs: it
    runs the uncapped search's first ``k`` nodes, in order, and judges
    the schedules those runs judged."""
    import repro.check.explore as explore_mod

    run_node = explore_mod.run_node
    ran = []

    def spy(*args, **node_kwargs):
        ran.append(node_kwargs["prefix"])
        return run_node(*args, **node_kwargs)

    monkeypatch.setattr(explore_mod, "run_node", spy)
    whole = explore("litmus-sb", CONFIG, **kwargs)
    assert not whole.truncated
    order = list(ran)
    names = [verdict.name for verdict in whole.verdicts]
    for cap in (1, 7, 40):
        ran.clear()
        capped = explore("litmus-sb", CONFIG, max_schedules=cap, **kwargs)
        assert capped.truncated
        assert ran == order[:cap]
        assert capped.explored + capped.pruned == cap
        assert [verdict.name for verdict in capped.verdicts] == (
            names[:capped.explored])
