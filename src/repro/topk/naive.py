"""Naive query rewriting — the baseline the paper argues against.

§1 dismisses the "naive solution" of writing the relaxed queries by hand
and evaluating them all: "tedious and expensive ... in terms of repeated
processing of similar queries and, thus, of lost optimization
opportunities." §7 classifies it as the *rewriting strategy* of
[11, 15, 18, 30] without DPO's optimizations.

This implementation makes the baseline concrete so benchmarks can quantify
what DPO's bookkeeping and SSO's single-plan encoding buy:

- every schedule level is evaluated in full (no early stop at K; a
  sharded run still retires shards through the session's ``bound`` hook);
- no answer-id memory across levels — the containment-implied duplicates
  are recomputed at every level and deduplicated only at the end;
- all answers are collected and sorted once, at the end.

Stateless like its siblings: plans come prebuilt from the
:class:`~repro.compiled.CompiledQuery`, per-query state rides the
session (:class:`~repro.topk.base.ExecutionSession`, or a scatter session
over shards).
"""

from __future__ import annotations

from repro.obs.tracer import NULL_TRACER
from repro.rank.schemes import STRUCTURE_FIRST
from repro.topk.base import ExecutionSession, run_top_k


class NaiveRewriting:
    """Evaluate every relaxation in full; sort everything at the end."""

    name = "NaiveRewriting"

    def __init__(self, context):
        self._context = context

    def top_k(self, query, k, scheme=STRUCTURE_FIRST, max_relaxations=None,
              tracer=NULL_TRACER, control=None):
        """Return the top-K answers of ``query`` under ``scheme``."""
        session = ExecutionSession(self._context, tracer=tracer,
                                   control=control)
        return run_top_k(self, session, query, k, scheme, max_relaxations)

    def execute(self, compiled, session, k, scheme=STRUCTURE_FIRST):
        """Evaluate every level in full over the compiled artifact."""
        schedule = compiled.schedule

        best = {}
        for level in range(len(schedule) + 1):
            if session.exhausted:
                break
            for answer in session.run_strict(compiled, level,
                                             exclude_seen=False):
                current = best.get(answer.node_id)
                if current is None or scheme.sort_key(
                    answer.score
                ) > scheme.sort_key(current.score):
                    best[answer.node_id] = answer
            if level < len(schedule) and len(best) >= k:
                session.bound(compiled, level, best.values(), k, scheme)

        return session.result(self.name, compiled, k, scheme, best.values(),
                              len(schedule))
