"""Scatter-gather top-K over a :class:`~repro.backend.sharded.ShardedBackend`.

The merge design (DESIGN §14) keeps per-shard execution *identical* to
single-shard execution — same plans, same executor, same schedules, same
(globally weighted) scores — so the coordinator only reasons about scores:

- :class:`ShardedQueryContext` mirrors :class:`~repro.topk.base.
  QueryContext` for the coordinator (global statistics, penalties,
  estimator, plan cache) and owns one ordinary ``QueryContext`` per shard,
  each bound to a :class:`~repro.backend.sharded.ShardView` (shard-local
  storage, corpus-wide statistics).  A query compiles **once**, on the
  coordinator: penalties and schedules derive from aggregate statistics,
  so the one :class:`~repro.compiled.CompiledQuery` artifact is valid on
  every shard.
- :class:`ShardedStrategy` wraps one of the five strategies and runs that
  strategy's own ``execute`` — the one control loop per algorithm —
  against a :class:`ScatterSession`.  The session implements the local
  :class:`~repro.topk.base.ExecutionSession` contract over per-shard
  sessions: every ``run_strict``/``run_encoded`` call is one coordinated
  round on the shards still in play, answers come back re-addressed to
  global node ids, and because answers partition by shard the merged
  count drives the same control flow the loop follows unsharded.
- **Early termination** (the §5.2.1 ``maxScoreGrowth`` bound turned
  per-shard ceiling): the walks call the session's ``bound`` hook after
  each level that holds K answers.  Every shard's best possible future
  answer is bounded by the next level's structural score (identical
  across shards) plus a shard-local keyword ceiling (terms the shard has
  never indexed can never contribute).  A shard whose ceiling sorts
  strictly below the current global K-th answer is never asked for its
  next round — ``shards.pruned`` counts these, ``shards.rounds`` the
  coordinated rounds.  Pruning never changes answers: every answer a
  pruned shard could still produce sorts strictly below the final K-th.
  SSO and Hybrid stop as soon as their one plan yields K answers, so they
  never call the hook.

Untraced rounds fan out on a per-context thread pool.  Traced queries run
shards sequentially (a :class:`~repro.obs.Tracer` is not thread-safe) with
each shard's spans merged under a ``shard N`` span.
"""

from __future__ import annotations

import heapq
from concurrent.futures import ThreadPoolExecutor

from repro.backend.sharded import GlobalNode
from repro.compiled import PlanCache, compile_query
from repro.ir.scoring import idf
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.plans.cost import MeasuredCostModel
from repro.plans.eval_cache import CACHE_NAMES
from repro.rank.schemes import STRUCTURE_FIRST, rank_answers
from repro.rank.scores import AnswerScore
from repro.relax.penalties import UNIFORM_WEIGHTS, PenaltyModel
from repro.stats.selectivity import SelectivityEstimator
from repro.topk.base import (
    ExecutionSession,
    QueryContext,
    TopKResult,
    run_top_k,
)

#: Safety pad on the per-shard keyword ceiling: the ceiling is provably an
#: upper bound in real arithmetic; the pad absorbs any float-summation
#: reordering between the bound and the executor's accumulation, trading an
#: immeasurable amount of pruning for certainty.
_CEILING_EPSILON = 1e-9


class _VersionShim:
    """Stands in for ``context.corpus`` during coordinator compiles.

    :func:`~repro.compiled.compile_query` stamps the artifact with
    ``corpus.version``; the sharded corpus version is the backend's (the
    sum over children), which is what fences plan/result caches here.
    """

    __slots__ = ("_backend",)

    def __init__(self, backend):
        self._backend = backend

    @property
    def version(self):
        return self._backend.version


class AggregateEvalCache:
    """The coordinator-facing view over the per-shard evaluation caches.

    Serves the :class:`~repro.engine.Engine` surface — the ``enabled``
    kill switch fans out, ``info()``/``metrics_snapshot()`` sum — while
    all actual memoization stays shard-local (keys are shard-local node
    ids, which must never mix).
    """

    def __init__(self, caches):
        self._caches = list(caches)

    @property
    def enabled(self):
        return all(cache.enabled for cache in self._caches)

    @enabled.setter
    def enabled(self, value):
        for cache in self._caches:
            cache.enabled = value

    def clear(self):
        for cache in self._caches:
            cache.clear()

    def entry_count(self):
        return sum(cache.entry_count() for cache in self._caches)

    def info(self):
        totals = {
            "entries": 0,
            "max_entries": 0,
            "hits": 0,
            "misses": 0,
            "evictions": 0,
            "invalidations": 0,
        }
        for cache in self._caches:
            for key, value in cache.info().items():
                totals[key] += value
        return totals

    def metrics_snapshot(self):
        totals = dict.fromkeys(
            ["eval_cache.%s.%s" % (name, kind)
             for name in CACHE_NAMES for kind in ("hits", "misses")]
            + ["eval_cache.flushes"],
            0,
        )
        for cache in self._caches:
            for key, value in cache.metrics_snapshot().items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def __repr__(self):
        return "AggregateEvalCache(shards=%d, entries=%d)" % (
            len(self._caches), self.entry_count()
        )


class ShardedQueryContext:
    """Coordinator context plus one ordinary QueryContext per shard.

    Quacks like :class:`~repro.topk.base.QueryContext` everywhere the
    engine, session, and observability layers look: ``backend`` /
    ``corpus`` (a version shim) / ``rwlock`` / ``ir`` / ``statistics`` /
    ``penalties`` / ``estimator`` / ``eval_cache`` / ``plan_cache`` /
    ``compile`` / ``schedule`` / ``attach_tracer``.  ``document`` is None —
    no unified node table exists.
    """

    def __init__(self, backend, weights=UNIFORM_WEIGHTS,
                 plan_cache_size=None, cost_model=None):
        self.backend = backend
        self.corpus = _VersionShim(backend)
        self.document = None
        self.rwlock = backend.lock
        self.ir = backend.ir
        self.statistics = backend
        self.weights = weights
        self.penalties = PenaltyModel(self.statistics, self.ir, weights)
        self.estimator = SelectivityEstimator(self.statistics, self.ir)
        # The coordinator's cost model lowers plans against *aggregate*
        # statistics; shard contexts keep their own (feedback stays
        # shard-local and never feeds the coordinator's fingerprint).
        if cost_model is None:
            cost_model = MeasuredCostModel(self.statistics)
        self.cost_model = cost_model
        self.feedback = getattr(cost_model, "feedback", None)
        self.shard_contexts = [
            QueryContext(view, weights=weights) for view in backend.views()
        ]
        self.eval_cache = AggregateEvalCache(
            [context.eval_cache for context in self.shard_contexts]
        )
        self.executor = None
        self.plan_cache = (
            PlanCache() if plan_cache_size is None
            else PlanCache(plan_cache_size)
        )
        self._thread_pool = None
        backend.subscribe(self._on_backend_growth)

    def _on_backend_growth(self, backend, start_id, end_id):
        # Shard contexts subscribed through their views and have already
        # dropped their own caches; the coordinator's plan cache (penalties
        # from aggregate statistics) is what goes stale here.
        self.plan_cache.invalidate()
        if self.feedback is not None:
            self.feedback.clear()

    def attach_tracer(self, tracer):
        # Fans out to every shard's IR engine through the aggregate.
        self.ir.set_tracer(tracer)

    def compile(self, query, max_relaxations=None, skip_useless_gamma=True):
        """One coordinator-compiled artifact, valid on every shard.

        Penalties and schedules derive from aggregate statistics, and a
        plan's node-id-free structure is corpus-independent, so the same
        immutable artifact drives all shards.  The cache key carries the
        backend version (the sum of child versions), so ingest into *any*
        shard fences every cached artifact.
        """
        key = (
            query,
            max_relaxations,
            skip_useless_gamma,
            self.backend.version,
            self.cost_model.fingerprint(),
        )
        compiled = self.plan_cache.get(key)
        if compiled is None:
            compiled = compile_query(
                self,
                query,
                max_relaxations=max_relaxations,
                skip_useless_gamma=skip_useless_gamma,
            )
            self.plan_cache.put(key, compiled)
        return compiled

    def schedule(self, query, max_steps=None, skip_useless_gamma=True):
        return self.compile(
            query,
            max_relaxations=max_steps,
            skip_useless_gamma=skip_useless_gamma,
        ).schedule

    def thread_pool(self):
        """The lazily built per-context scatter thread pool."""
        if self._thread_pool is None:
            self._thread_pool = ThreadPoolExecutor(
                max_workers=len(self.shard_contexts),
                thread_name_prefix="shard-scatter",
            )
        return self._thread_pool

    def close(self):
        """Shut down the scatter thread pool (idempotent)."""
        if self._thread_pool is not None:
            self._thread_pool.shutdown(wait=True)
            self._thread_pool = None


# -- the scatter session -----------------------------------------------------


class ScatterSession:
    """The :class:`~repro.topk.base.ExecutionSession` contract over shards.

    A strategy's ``execute`` drives it exactly as it drives a local
    session; every ``run_*`` call is one coordinated round over the shards
    still in play.  Each shard keeps its own local session — its ``seen``
    set (shard-local ids), stats, traces and level count — and answers are
    re-addressed to :class:`~repro.backend.sharded.GlobalNode` ids on the
    way out, so the strategy's merged counts and rankings are the
    unsharded ones (answers partition by shard).

    :meth:`bound` is the ``maxScoreGrowth`` early-termination merge; once
    it has retired every shard the session is ``exhausted``.
    """

    def __init__(self, context, run_shard, tracer=NULL_TRACER, control=None):
        self.context = context
        self.tracer = tracer
        self.restarts = 0
        self.shard_rounds = 0
        self.shards_pruned = 0
        self._run_shard = run_shard
        self._shards = []
        for index, shard_context in enumerate(context.shard_contexts):
            shard = ExecutionSession(shard_context, control=control)
            shard.prefix = "shard %d " % index
            self._shards.append(shard)
        self._pruned = [False] * len(self._shards)
        self._ceilings = None

    @property
    def exhausted(self):
        return all(self._pruned)

    def run_strict(self, compiled, level, exclude_seen, restrictions=None):
        return self._scatter(
            ExecutionSession.run_strict,
            (compiled, level, exclude_seen, restrictions),
        )

    def run_encoded(self, compiled, level, k, scheme, mode):
        return self._scatter(
            ExecutionSession.run_encoded, (compiled, level, k, scheme, mode)
        )

    def bound(self, compiled, level, answers, k, scheme):
        """Retire every shard whose best next-level answer cannot place.

        A shard's ceiling is the next level's structural score (identical
        across shards) plus its keyword ceiling.  A shard whose ceiling
        sorts strictly below the current global K-th answer is done; ties
        are kept — a tied future answer can still win on node id.
        """
        kth_key = heapq.nlargest(
            k, (scheme.sort_key(answer.score) for answer in answers)
        )[-1]
        if self._ceilings is None:
            self._ceilings = _keyword_ceilings(self.context.backend, compiled)
        next_score = compiled.schedule.structural_score(level + 1)
        for index, ceiling in enumerate(self._ceilings):
            if self._pruned[index]:
                continue
            if scheme.sort_key(AnswerScore(next_score, ceiling)) < kth_key:
                self._pruned[index] = True
                self.shards_pruned += 1

    def result(self, algorithm, compiled, k, scheme, answers,
               relaxations_used):
        shards = self._shards
        return TopKResult(
            algorithm=algorithm,
            query=compiled.tpq,
            k=k,
            scheme=scheme,
            answers=rank_answers(answers, scheme, k),
            relaxations_used=relaxations_used,
            levels_evaluated=sum(shard.levels_evaluated for shard in shards),
            restarts=self.restarts,
            stats=[stat for shard in shards for stat in shard.stats],
            traces=[trace for shard in shards for trace in shard.traces],
            shard_rounds=self.shard_rounds,
            shards_pruned=self.shards_pruned,
        )

    def _scatter(self, method, args):
        """One round of ``method`` on every shard in play; global answers."""
        runnable = [
            index for index, pruned in enumerate(self._pruned) if not pruned
        ]
        self.shard_rounds += 1
        results = self._round(runnable, method, args)
        translate = self.context.backend.translate_id
        merged = []
        for index, answers in zip(runnable, results):
            # Every round's answers are fresh objects: re-address in place.
            for answer in answers:
                answer.node = GlobalNode(
                    answer.node, translate(index, answer.node_id), index
                )
            merged.extend(answers)
        return merged

    def _round(self, runnable, method, args):
        """Per-shard answer lists, in ``runnable`` order.

        Traced rounds run sequentially (a Tracer is not thread-safe), each
        shard under its own ``shard N`` span; untraced rounds fan out on the
        context's thread pool.
        """
        shards = self._shards
        tracer = self.tracer
        if tracer.enabled:
            out = []
            for index in runnable:
                shard = shards[index]
                shard.tracer = Tracer()
                try:
                    with tracer.span("shard %d" % index):
                        out.append(self._run_shard(shard, method, args))
                finally:
                    shard_tracer, shard.tracer = shard.tracer, NULL_TRACER
                tracer.merge(shard_tracer)
            return out
        if len(runnable) == 1:
            return [self._run_shard(shards[runnable[0]], method, args)]
        pool = self.context.thread_pool()
        futures = [
            pool.submit(self._run_shard, shards[index], method, args)
            for index in runnable
        ]
        return [future.result() for future in futures]


# -- the strategy wrapper -----------------------------------------------------


class ShardedStrategy:
    """One strategy presented over all shards.

    Compiles once on the coordinator and runs the wrapped strategy's own
    ``execute`` against a :class:`ScatterSession`, so the session layer,
    result cache and facade cannot tell it from the unsharded strategy.
    """

    def __init__(self, strategy_cls, context):
        self._context = context
        # Bound to the coordinator: policy questions (SSO's choose_level)
        # are answered from global statistics.
        self._strategy = strategy_cls(context)
        self.name = strategy_cls.name

    def choose_level(self, schedule, k, scheme, contains_count):
        """Delegate to the wrapped strategy's policy (global statistics)."""
        return self._strategy.choose_level(schedule, k, scheme,
                                           contains_count)

    def top_k(self, query, k, scheme=STRUCTURE_FIRST, max_relaxations=None,
              tracer=NULL_TRACER, control=None):
        """Scatter the query over every shard; gather with early termination."""
        session = ScatterSession(self._context, self._run_shard,
                                 tracer=tracer, control=control)
        return run_top_k(self._strategy, session, query, k, scheme,
                         max_relaxations)

    def _run_shard(self, shard, method, args):
        """One shard's share of a scatter round, in the current thread."""
        return method(shard, *args)


# -- the per-shard maxScoreGrowth ceiling --------------------------------------


def _keyword_ceilings(backend, compiled):
    """Per-shard upper bound on any answer's keyword score.

    An answer's keyword score sums, over the query's ``contains``
    predicates, idf-weighted averages of saturating term frequencies
    (:mod:`repro.ir.scoring`); relaxation only ever drops predicates.
    Per shard and predicate the score is therefore at most the idf
    mass of the terms the shard has indexed at all, over the total idf
    mass — with corpus-wide idf weights, so the bound (like the scores
    themselves) is shard-comparable.
    """
    predicates = compiled.tpq.contains
    if not predicates:
        return [0.0] * backend.shard_count
    global_stats = backend.ir.index
    ceilings = []
    for shard in backend.shards:
        total = 0.0
        for predicate in predicates:
            terms = shard.ir._positive_terms(predicate.ftexpr)
            numerator = 0.0
            denominator = 0.0
            for term in terms:
                weight = idf(global_stats, term)
                denominator += weight
                if shard.ir.index.posting(term) is not None:
                    numerator += weight
            if denominator > 0.0:
                total += numerator / denominator
        ceilings.append(total + _CEILING_EPSILON)
    return ceilings
