"""SSO — Static Selectivity Order (§5.1.2, Algorithm 1).

SSO never evaluates intermediate relaxation levels: it uses the selectivity
estimator to decide statically how many of the cheapest relaxations must be
encoded to yield at least K answers, fetches the prebuilt plan encoding
exactly those (Figure 8 style) from the compiled artifact, and evaluates it
once with threshold / ``maxScoreGrowth`` pruning. Intermediate results are
kept **sorted on score** — the re-sorting cost that motivates Hybrid.

When the estimate was optimistic and fewer than K answers come back,
SSO restarts with more relaxations encoded (Algorithm 1, lines 11-13).

Like every strategy, SSO is stateless: per-query state lives in the
:class:`~repro.topk.base.ExecutionSession`, plans in the immutable
:class:`~repro.compiled.CompiledQuery`.
"""

from __future__ import annotations

from repro.obs.tracer import NULL_TRACER
from repro.plans.executor import SSO_MODE
from repro.rank.schemes import STRUCTURE_FIRST
from repro.topk.base import ExecutionSession, combined_level_cutoff, run_top_k


class SSO:
    """Static Selectivity Order top-K evaluation."""

    name = "SSO"
    _mode = SSO_MODE

    def __init__(self, context):
        self._context = context

    def choose_level(self, schedule, k, scheme, contains_count):
        """Pick the relaxation level to encode, from selectivity estimates.

        Walks the schedule accumulating estimated result sizes until K is
        reached (Algorithm 1, lines 3-7), then applies the scheme's policy:
        keyword-first encodes everything; combined extends to the §5.1
        cutoff.
        """
        estimator = self._context.estimator
        level = 0
        while level < len(schedule):
            estimate = estimator.estimate(schedule.level(level).query)
            if estimate >= k:
                break
            level += 1
        if scheme.requires_all_relaxations:
            return len(schedule)
        if scheme.keyword_headroom(contains_count) > 0:
            return combined_level_cutoff(schedule, level, contains_count)
        return level

    def top_k(self, query, k, scheme=STRUCTURE_FIRST, max_relaxations=None,
              tracer=NULL_TRACER, control=None):
        """Return the top-K answers of ``query`` under ``scheme``."""
        session = ExecutionSession(self._context, tracer=tracer,
                                   control=control)
        return run_top_k(self, session, query, k, scheme, max_relaxations)

    def execute(self, compiled, session, k, scheme=STRUCTURE_FIRST):
        """Run the encoded-plan evaluation (with restarts) — stateless."""
        schedule = compiled.schedule
        level = self.choose_level(schedule, k, scheme,
                                  compiled.contains_count())

        while True:
            answers = session.run_encoded(compiled, level, k, scheme,
                                          self._mode)
            if len(answers) >= k or level >= len(schedule):
                break
            # Estimate was optimistic: drop more predicates and restart.
            level += 1
            session.restarts += 1

        return session.result(self.name, compiled, k, scheme, answers, level)
