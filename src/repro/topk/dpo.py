"""DPO — Dynamic Penalty Order (§5.1.1).

DPO walks the relaxation schedule one level at a time, evaluating each
level's query with a strict plan (this is the algorithm designed to work
with off-the-shelf XPath and IR engines). After each level it counts the
accumulated distinct answers and stops as soon as K are available.

Properties reproduced from the paper:

- answers of a later level always score at or below answers of an earlier
  level, so DPO appends without re-sorting (structure-first scheme);
- the structural score of every answer of one level is known at compile
  time — the level's score from the schedule;
- recomputation across levels is avoided by remembering answer ids already
  produced (the paper's "vectors of answer lists").

For keyword-first ranking every level must be evaluated; for the combined
scheme the §5.1 cutoff limits how far past the K-th answer DPO walks.

The strategy object is stateless: ``top_k`` compiles (or fetches from the
plan cache) an immutable :class:`~repro.compiled.CompiledQuery` and runs
the level walk in :meth:`execute` against a per-query session — one
instance is safely shared between threads.  The same walk runs sharded: a
:class:`~repro.sharding.ScatterSession` runs each level on every shard
still in play and retires shards through its ``bound`` hook.
"""

from __future__ import annotations

from repro.obs.tracer import NULL_TRACER
from repro.rank.schemes import STRUCTURE_FIRST
from repro.topk.base import ExecutionSession, combined_level_cutoff, run_top_k


class DPO:
    """Dynamic Penalty Order top-K evaluation."""

    name = "DPO"

    #: Per-level pool filter ``(context, query) -> {var: node ids}``; DPO
    #: seeds structural matching with full tag lists (IR-first overrides).
    _restrictions_for = None

    def __init__(self, context):
        self._context = context

    def top_k(self, query, k, scheme=STRUCTURE_FIRST, max_relaxations=None,
              tracer=NULL_TRACER, control=None):
        """Return the top-K answers of ``query`` under ``scheme``."""
        session = ExecutionSession(self._context, tracer=tracer,
                                   control=control)
        return run_top_k(self, session, query, k, scheme, max_relaxations)

    def execute(self, compiled, session, k, scheme=STRUCTURE_FIRST):
        """Run the DPO level walk over a compiled artifact (stateless)."""
        schedule = compiled.schedule
        contains_count = compiled.contains_count()

        cutoff = len(schedule)
        reached_level = None
        collected = []
        walked = 0

        for level in range(len(schedule) + 1):
            if level > cutoff or session.exhausted:
                break
            collected.extend(session.run_strict(
                compiled, level, exclude_seen=True,
                restrictions=self._restrictions_for,
            ))
            walked = level
            if len(collected) < k:
                continue
            if reached_level is None:
                reached_level = level
                if scheme.requires_all_relaxations:
                    cutoff = len(schedule)
                elif scheme.keyword_headroom(contains_count) > 0:
                    cutoff = combined_level_cutoff(
                        schedule, reached_level, contains_count
                    )
                else:
                    cutoff = level  # structure-first: stop right here
            if level < cutoff:
                session.bound(compiled, level, collected, k, scheme)

        return session.result(self.name, compiled, k, scheme, collected,
                              walked)
