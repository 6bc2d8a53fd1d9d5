"""The compile phase: immutable query artifacts and the bounded plan cache.

FleXPath's Figure-7 lifecycle has two halves with very different
lifetimes.  *What a relaxed query means* — the parsed TPQ, its closure
(§3.2), the penalty-ordered relaxation schedule (§4), and the per-level
plans that realize each schedule prefix (§5.2) — depends only on the query
text, the weight assignment, and the corpus statistics.  *How a particular
top-K request evaluates* — which levels actually run, which tuples
survive, what lands in the answer heap — depends on ``k``, the ranking
scheme, and the live caches.  This module owns the first half:

- :class:`CompiledQuery` is the immutable compile artifact.  Every field
  is computed eagerly at construction and never mutated afterwards, so one
  instance may be shared freely between threads and across queries;
- :func:`compile_query` is the pure producer — same inputs, same artifact,
  no side effects on the context;
- :class:`PlanCache` is the bounded, corpus-version-fenced LRU the
  :class:`~repro.topk.base.QueryContext` fronts ``compile_query`` with.
  It absorbs the old unbounded ``QueryContext._schedules`` dict and
  reports ``plan_cache.*`` metrics to the process registry.

The execute half lives in :mod:`repro.topk`: strategies are stateless
policies that walk a :class:`CompiledQuery` with a per-query
:class:`~repro.topk.base.ExecutionSession` carrying all mutable state.
"""

from __future__ import annotations

from repro.cache import LRUCache
from repro.plans.cost import StaticCostModel
from repro.plans.physical import lower_plan
from repro.plans.plan import build_encoded_plan, build_strict_plan
from repro.query.closure import closure
from repro.query.minimize import minimize
from repro.relax.steps import RelaxationSchedule

#: Default bound on the plan cache (distinct compiled artifacts retained).
DEFAULT_PLAN_CACHE_SIZE = 256


class CompiledQuery:
    """Everything knowable about a query before execution begins.

    Immutable by construction: the schedule, closure, core, and both plan
    families (per-level strict plans for DPO-style walks, per-level encoded
    plans for SSO/Hybrid single-pass evaluation) are built eagerly and
    stored in tuples.  A warm :class:`PlanCache` hit therefore skips
    closure computation, schedule construction, and *all* plan building —
    the acceptance target ``benchmarks/bench_plan_cache.py`` measures.

    Instances hash and compare by identity; the cache key lives in the
    :class:`PlanCache`, not on the artifact.
    """

    __slots__ = (
        "tpq",
        "closure",
        "core",
        "schedule",
        "max_relaxations",
        "skip_useless_gamma",
        "weights",
        "corpus_version",
        "strict_plans",
        "encoded_plans",
        "strict_physical_plans",
        "encoded_physical_plans",
        "cost_model_name",
        "cost_fingerprint",
    )

    def __init__(self, tpq, closure_set, core_set, schedule, max_relaxations,
                 skip_useless_gamma, weights, corpus_version, strict_plans,
                 encoded_plans, strict_physical_plans, encoded_physical_plans,
                 cost_model_name, cost_fingerprint):
        object.__setattr__(self, "tpq", tpq)
        object.__setattr__(self, "closure", closure_set)
        object.__setattr__(self, "core", core_set)
        object.__setattr__(self, "schedule", schedule)
        object.__setattr__(self, "max_relaxations", max_relaxations)
        object.__setattr__(self, "skip_useless_gamma", skip_useless_gamma)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "corpus_version", corpus_version)
        object.__setattr__(self, "strict_plans", strict_plans)
        object.__setattr__(self, "encoded_plans", encoded_plans)
        object.__setattr__(
            self, "strict_physical_plans", strict_physical_plans
        )
        object.__setattr__(
            self, "encoded_physical_plans", encoded_physical_plans
        )
        object.__setattr__(self, "cost_model_name", cost_model_name)
        object.__setattr__(self, "cost_fingerprint", cost_fingerprint)

    def __setattr__(self, name, value):
        raise AttributeError(
            "CompiledQuery is immutable; cannot set %r" % name
        )

    def __delattr__(self, name):
        raise AttributeError(
            "CompiledQuery is immutable; cannot delete %r" % name
        )

    # -- pickling -------------------------------------------------------------
    #
    # A CompiledQuery pickles, so an artifact can be shipped to another
    # process.  The default slots protocol restores attributes through
    # ``setattr`` (which this class forbids), so spell the state transfer
    # out with ``object.__setattr__``.  The schedule drops its penalty
    # model in transit (see RelaxationSchedule.__getstate__) — executing
    # prebuilt plans and reading per-level scores needs neither, both are
    # materialized in the artifact.

    def __getstate__(self):
        return {name: getattr(self, name) for name in self.__slots__}

    def __setstate__(self, state):
        for name, value in state.items():
            object.__setattr__(self, name, value)

    # -- level accessors -----------------------------------------------------

    def __len__(self):
        """Number of relaxation levels beyond the original query."""
        return len(self.schedule)

    def level_count(self):
        """Total levels including level 0 (the original query)."""
        return len(self.schedule) + 1

    def strict_plan(self, level):
        """The prebuilt strict plan evaluating exactly schedule level ``level``."""
        return self.strict_plans[level]

    def encoded_plan(self, level):
        """The prebuilt single-pass plan encoding schedule levels 0..``level``."""
        return self.encoded_plans[level]

    def strict_physical(self, level):
        """The lowered physical plan for the strict plan at ``level``."""
        return self.strict_physical_plans[level]

    def encoded_physical(self, level):
        """The lowered physical plan for the encoded plan at ``level``."""
        return self.encoded_physical_plans[level]

    def structural_score(self, level):
        """Compile-time structural score of answers first seen at ``level``."""
        return self.schedule.structural_score(level)

    def contains_count(self):
        """Number of ``contains`` predicates in the original query."""
        return len(self.tpq.contains)

    def __repr__(self):
        return "CompiledQuery(%s, levels=%d, version=%d)" % (
            self.tpq.to_xpath(),
            len(self.schedule),
            self.corpus_version,
        )


def compile_query(context, tpq, weights=None, max_relaxations=None,
                  skip_useless_gamma=True):
    """Produce the immutable :class:`CompiledQuery` for one request shape.

    Pure with respect to the context: reads the penalty model and corpus
    version, writes nothing.  The artifact captures, in order:

    1. the **closure** of the query's logical expression and its **core**
       (the minimal equivalent set, Theorem 1) — the §3 semantics every
       relaxation is defined against;
    2. the **relaxation schedule** with per-level cumulative penalties
       (cheapest valid drop first, §4);
    3. one prebuilt **strict plan per level** (what DPO and the naive
       baseline execute) and one prebuilt **encoded plan per level** (what
       SSO/Hybrid execute, Figure 8), so the execute phase never builds a
       plan;
    4. one lowered **physical plan per logical plan**: the context's cost
       model orders the joins and picks the physical operator (holistic
       twig join vs. binary pipeline) at compile time, and the model's
       fingerprint is recorded so the :class:`PlanCache` key can fence
       artifacts against cost-model drift (the measured model's answers
       change as feedback accumulates).
    """
    weights = weights if weights is not None else context.weights
    cost_model = getattr(context, "cost_model", None)
    if cost_model is None:
        cost_model = StaticCostModel(context.statistics)
    closure_set = closure(tpq)
    core_set = minimize(closure_set)
    schedule = RelaxationSchedule(
        tpq,
        context.penalties,
        max_steps=max_relaxations,
        skip_useless_gamma=skip_useless_gamma,
    )
    strict_plans = tuple(
        build_strict_plan(entry.query, weights) for entry in schedule.entries
    )
    encoded_plans = tuple(
        build_encoded_plan(schedule, level)
        for level in range(len(schedule) + 1)
    )
    strict_physical_plans = tuple(
        lower_plan(plan, cost_model) for plan in strict_plans
    )
    encoded_physical_plans = tuple(
        lower_plan(plan, cost_model) for plan in encoded_plans
    )
    corpus = context.corpus
    return CompiledQuery(
        tpq=tpq,
        closure_set=closure_set,
        core_set=core_set,
        schedule=schedule,
        max_relaxations=max_relaxations,
        skip_useless_gamma=skip_useless_gamma,
        weights=weights,
        corpus_version=corpus.version if corpus is not None else 0,
        strict_plans=strict_plans,
        encoded_plans=encoded_plans,
        strict_physical_plans=strict_physical_plans,
        encoded_physical_plans=encoded_physical_plans,
        cost_model_name=cost_model.name,
        cost_fingerprint=cost_model.fingerprint(),
    )


class PlanCache(LRUCache):
    """Bounded, thread-safe, corpus-version-fenced LRU of compiled queries.

    The key is the full compile request — ``(TPQ, max_relaxations,
    skip_useless_gamma, corpus version, cost-model fingerprint)`` — so a
    grown corpus can never be answered with plans whose penalties were
    derived from stale statistics; owners also :meth:`invalidate` on
    growth.  Metrics go under ``plan_cache.*`` (see
    :class:`~repro.cache.LRUCache`).
    """

    def __init__(self, max_entries=DEFAULT_PLAN_CACHE_SIZE):
        super().__init__("plan", max_entries)
