"""Hierarchical statistics counters.

Every component of the machine (engine, caches, bus, HTM, runtime) records
into a shared :class:`Stats` tree so experiments can report cycle counts,
hit rates, violation counts, and instruction overheads without the
components knowing about each other.

Counter names are dotted strings, but building them per increment
(f-strings on the hot path) costs more than the increment itself.  Two
mechanisms keep the name machinery off the hot path without changing any
counter name:

* :class:`StatsScope` caches each ``name -> "prefix.name"`` key it has
  seen, so repeated ``scope.add("loads")`` calls never re-format;
* :meth:`Stats.counter` / :meth:`StatsScope.counter` return a
  :class:`BoundCounter` — a pre-resolved handle that increments the
  underlying slot directly.  Components bind their per-CPU counters once
  at construction and call ``counter.add()`` per event.
"""

from __future__ import annotations

from collections import defaultdict


class BoundCounter:
    """A pre-bound handle onto one counter slot of a :class:`Stats` tree.

    Holds the fully-resolved dotted key, so incrementing is a single
    dict update with no string formatting.  The slot is created lazily
    on the first :meth:`add`, exactly as a plain ``stats.add`` would.
    """

    __slots__ = ("_counters", "name")

    def __init__(self, counters, name):
        self._counters = counters
        self.name = name

    def add(self, amount=1):
        self._counters[self.name] += amount

    def get(self, default=0):
        return self._counters.get(self.name, default)

    def __repr__(self):
        return f"BoundCounter({self.name!r}={self.get()})"


class Stats:
    """A tree of named integer counters.

    ``stats.add("l1.hits")`` bumps a counter; ``stats.scope("cpu0")``
    returns a child view whose counter names are prefixed, so per-CPU and
    machine-wide numbers coexist: ``cpu0.l1.hits``.
    """

    #: Snapshot state (repro.sim.snapshot), loaded in place: every
    #: BoundCounter aliases the dict.
    _state = ("_counters",)

    def __init__(self):
        self._counters = defaultdict(int)

    def add(self, name, amount=1):
        """Add ``amount`` to counter ``name``."""
        self._counters[name] += amount

    def set(self, name, value):
        """Set counter ``name`` to ``value`` (for gauges like cycle count)."""
        self._counters[name] = value

    def get(self, name, default=0):
        """Read counter ``name``."""
        return self._counters.get(name, default)

    def counter(self, name):
        """A :class:`BoundCounter` onto ``name`` (hot-path increments)."""
        return BoundCounter(self._counters, name)

    def scope(self, prefix):
        """Return a :class:`StatsScope` that prefixes all counter names."""
        return StatsScope(self, prefix)

    def matching(self, prefix):
        """Return ``{name: value}`` for counters under ``prefix.``."""
        dotted = prefix + "."
        return {
            name: value
            for name, value in self._counters.items()
            if name.startswith(dotted)
        }

    def total(self, suffix):
        """Sum every counter whose name ends with ``suffix``.

        Useful for machine-wide aggregates over per-CPU scopes, e.g.
        ``stats.total("htm.violations")``.
        """
        return sum(
            value
            for name, value in self._counters.items()
            if name == suffix or name.endswith("." + suffix)
        )

    def as_dict(self):
        """A plain-dict snapshot of every counter."""
        return dict(self._counters)

    def __repr__(self):
        entries = ", ".join(
            f"{name}={value}" for name, value in sorted(self._counters.items())
        )
        return f"Stats({entries})"


class StatsScope:
    """A prefixed view onto a :class:`Stats` tree.

    Fully-qualified keys are cached per scope, so a name is formatted at
    most once per scope no matter how many times it is recorded.
    """

    def __init__(self, stats, prefix):
        self._stats = stats
        self._prefix = prefix
        self._keys = {}

    def _key(self, name):
        key = self._keys.get(name)
        if key is None:
            key = self._keys[name] = f"{self._prefix}.{name}"
        return key

    def add(self, name, amount=1):
        # Inlines _key and Stats.add: scoped adds run on hot paths.
        key = self._keys.get(name)
        if key is None:
            key = self._key(name)
        self._stats._counters[key] += amount

    def set(self, name, value):
        self._stats.set(self._key(name), value)

    def get(self, name, default=0):
        return self._stats.get(self._key(name), default)

    def counter(self, name):
        """A :class:`BoundCounter` onto this scope's ``prefix.name``."""
        return self._stats.counter(self._key(name))

    def scope(self, prefix):
        return StatsScope(self._stats, self._key(prefix))
