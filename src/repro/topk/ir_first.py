"""IR-first evaluation — the §5.1 alternative the paper left unexplored.

    "An alternative possibility would first use an inverted index to
    evaluate the contains predicates and filter out potential answers, and
    then match structural predicates. The efficiency of each approach
    depends on the types of queries. A comparison of these two approaches
    would be interesting but is outside the scope of this paper."

This strategy realizes that alternative on top of DPO's level walk: before
evaluating a level's plan, the inverted index computes, for every variable
carrying a ``contains`` predicate, the set of elements (of that variable's
tag) whose subtree satisfies the expression. Structural matching is then
seeded with exactly those elements instead of the full tag list.

When the full-text expression is selective this skips almost all
structural work; when it is unselective (or the contains sits high in the
pattern, where most elements satisfy it) the filtering is pure overhead —
the trade-off the paper predicted, measurable with
``benchmarks/bench_ablation_ir_first.py``.

Stateless: satisfier sets live in the context's shared (locked)
:class:`~repro.plans.eval_cache.EvaluationCache`, everything else per
query in the session.  The level walk is DPO's own :meth:`DPO.execute`;
this class only supplies the per-level pool filter, which a session
evaluates against each context it runs plans on (satisfier sets hold that
context's node ids, so a sharded query filters shard by shard).
"""

from __future__ import annotations

from repro.topk.dpo import DPO


def _satisfiers(context, ftexpr, tag):
    """Node ids (with the given tag) whose subtree satisfies ``ftexpr``.

    The set lives in the context's shared :class:`EvaluationCache`
    (``satisfiers`` sub-cache), so it survives across queries, is shared
    with any other strategy asking the same question, and is invalidated
    when the corpus grows.  The virtual collection root is never a
    candidate: no query variable can bind it.
    """

    def compute():
        ir = context.ir
        backend = context.backend
        virtual_root = backend.virtual_root_id
        if tag is None:
            pool = backend.nodes()
        else:
            pool = backend.nodes_with_tag(tag)
        return frozenset(
            node.node_id for node in pool
            if node.node_id != virtual_root and ir.satisfies(node, ftexpr)
        )

    return context.eval_cache.satisfier_set((ftexpr, tag), compute)


class IRFirstDPO(DPO):
    """DPO with contains-satisfier pre-filtering from the inverted index."""

    name = "IRFirstDPO"

    # Its own entry in the class namespace (not inherited) so per-class
    # instrumentation of ``top_k`` counts an IR-first query once.
    top_k = DPO.top_k

    def _restrictions_for(self, context, query):
        restrictions = {}
        for predicate in query.contains:
            satisfiers = _satisfiers(
                context, predicate.ftexpr, query.tag_of(predicate.var)
            )
            current = restrictions.get(predicate.var)
            if current is None:
                restrictions[predicate.var] = satisfiers
            else:
                restrictions[predicate.var] = current & satisfiers
        return restrictions
