"""``repro.spec``: the executable reference semantics.

An abstract operational model of the paper's programmer-visible
transactional semantics: transactions execute *instantaneously* against a
flat sequential memory — no caches, no versioning hardware, no cycle
timing, no scheduler.  The model is small enough to trust by inspection,
which is what makes it usable as an oracle:

* :mod:`repro.spec.model` — the spec machine, runtime, and op
  interpreter (closed/open nesting, immediate stores, handler stacks,
  compensation, park/wake).
* :mod:`repro.spec.replay` — the guided differential replayer: re-run a
  program under spec semantics in the order of the simulator's committed
  history and flag any disagreement (:func:`check_conformance`).
* :mod:`repro.spec.outcomes` — exhaustive enumeration of the admissible
  serial outcomes of a program (used to gate the explorer's drains).
* :mod:`repro.spec.conform` — the ``python -m repro conform`` sweep of
  explorer search units, and the outcome-set gate over its drains.
"""

from repro.spec.model import (  # noqa: F401
    MUTATION_KINDS,
    SpecExecutor,
    SpecMachine,
    SpecRuntime,
    mutated,
)
from repro.spec.outcomes import spec_outcomes  # noqa: F401
from repro.spec.replay import check_conformance, freeze, replay_history  # noqa: F401
