"""The engine's locked LRU, and the two caching tiers built on it.

:class:`LRUCache` is one bounded, thread-safe LRU with instrumentation:
counters go to the process :class:`~repro.obs.metrics.MetricsRegistry`
under ``<name>_cache.*`` (``hits`` / ``misses`` / ``evictions`` /
``invalidations``, gauge ``<name>_cache.size``) and to the
``cache_hit``/``cache_miss`` event seam, while instance-level tallies back
:meth:`LRUCache.info`, so per-engine numbers stay exact when several
engines share one process registry.  Two tiers use it:

- :class:`ResultCache` (tier 2, ``result``): finished top-K results on the
  :class:`~repro.engine.FleXPath` facade, keyed by the canonical
  evaluation request — ``(TPQ, k, scheme name, algorithm,
  max_relaxations, corpus version)`` — so two textual spellings of the
  same tree pattern share one entry;
- :class:`~repro.compiled.PlanCache` (``plan``): compiled queries, keyed
  by the compile request.

Both are corpus-version fenced the same way: the version is part of every
key *and* the owner calls :meth:`LRUCache.invalidate` on growth — belt and
suspenders, so a stale read is impossible even if a caller keeps an old
key alive.  Cached values are immutable in practice, so handing the same
object back twice is safe.

Thread-safety: a single mutex serializes every probe — unlike the tier-1
:class:`~repro.plans.eval_cache.EvaluationCache`, even ``get`` mutates
(LRU ``move_to_end``), and probes are one per query or compile rather
than one per node, so the lock costs nothing measurable.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.obs.events import HUB
from repro.obs.metrics import REGISTRY

DEFAULT_MAX_ENTRIES = 128


class LRUCache:
    """Bounded, locked LRU reporting ``<name>_cache.*`` metrics and events."""

    def __init__(self, name, max_entries):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.name = name
        self.max_entries = max_entries
        self._entries = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._invalidations = 0
        self._metric = name + "_cache."

    def get(self, key):
        """The cached value for ``key``, or None; refreshes LRU order."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self._hits += 1
            else:
                self._misses += 1
        if entry is None:
            if REGISTRY.enabled:
                REGISTRY.inc(self._metric + "misses")
            if HUB.active:
                HUB.emit("cache_miss", {"engine": self.name,
                                        "cache": self.name})
            return None
        if REGISTRY.enabled:
            REGISTRY.inc(self._metric + "hits")
        if HUB.active:
            HUB.emit("cache_hit", {"engine": self.name, "cache": self.name})
        return entry

    def put(self, key, value):
        """Store ``value``, evicting the least-recently-used entry if full."""
        evicted = False
        with self._lock:
            entries = self._entries
            if key in entries:
                entries.move_to_end(key)
            entries[key] = value
            if len(entries) > self.max_entries:
                entries.popitem(last=False)
                self._evictions += 1
                evicted = True
            size = len(entries)
        if REGISTRY.enabled:
            if evicted:
                REGISTRY.inc(self._metric + "evictions")
            REGISTRY.set_gauge(self._metric + "size", size)

    def invalidate(self):
        """Drop every entry (corpus growth)."""
        with self._lock:
            dropped = bool(self._entries)
            if dropped:
                self._entries.clear()
                self._invalidations += 1
        if REGISTRY.enabled:
            if dropped:
                REGISTRY.inc(self._metric + "invalidations")
            REGISTRY.set_gauge(self._metric + "size", 0)

    def info(self):
        """Instance-level counters (independent of the process registry)."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "invalidations": self._invalidations,
            }

    def __len__(self):
        # Same discipline as every other accessor: len() of an OrderedDict
        # mid-mutation (put's insert + LRU pop) is not a consistent read.
        with self._lock:
            return len(self._entries)

    def __repr__(self):
        return "%s(entries=%d, max_entries=%d)" % (
            type(self).__name__, len(self), self.max_entries,
        )


class ResultCache(LRUCache):
    """LRU of finished top-K results (``result_cache.*`` metrics)."""

    def __init__(self, max_entries=DEFAULT_MAX_ENTRIES):
        super().__init__("result", max_entries)
