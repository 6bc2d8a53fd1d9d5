"""Selectivity-based join ordering."""

import pytest

from repro.backend.stats import DocumentStatistics
from repro.ir import IREngine
from repro.plans import (
    SSO_MODE,
    STRICT,
    PlanExecutor,
    build_encoded_plan,
    build_strict_plan,
)
from repro.plans.ordering import selectivity_ordered
from repro.query import parse_query
from repro.relax import UNIFORM_WEIGHTS, PenaltyModel, RelaxationSchedule
from repro.xmark import generate_document


@pytest.fixture(scope="module")
def doc():
    return generate_document(target_bytes=40_000, seed=21)


@pytest.fixture(scope="module")
def stats(doc):
    return DocumentStatistics(doc)


@pytest.fixture(scope="module")
def executor(doc):
    return PlanExecutor(doc, IREngine(doc))


QUERY = (
    "//item[./description/parlist/listitem and ./mailbox/mail/text and ./name]"
)


class TestOrdering:
    def test_dependencies_respected(self, stats):
        query = parse_query(QUERY)
        plan = build_strict_plan(query, UNIFORM_WEIGHTS)
        reordered = selectivity_ordered(plan, stats)
        bound = {plan.root_var}
        for join in reordered.joins:
            for alt in join.alternatives:
                assert alt.connect_var in bound, join.var
            bound.add(join.var)

    def test_same_joins_possibly_new_order(self, stats):
        query = parse_query(QUERY)
        plan = build_strict_plan(query, UNIFORM_WEIGHTS)
        reordered = selectivity_ordered(plan, stats)
        assert sorted(j.var for j in reordered.joins) == sorted(
            j.var for j in plan.joins
        )

    def test_selective_tags_come_early(self, stats, doc):
        query = parse_query(QUERY)
        plan = build_strict_plan(query, UNIFORM_WEIGHTS)
        reordered = selectivity_ordered(plan, stats)
        # Among the direct children of item, the rarest tag should precede
        # the most common one whenever dependencies allow.
        direct = [
            j for j in reordered.joins
            if j.alternatives[0].connect_var == plan.root_var
        ]
        counts = [doc.count(j.tag) for j in direct]
        assert counts == sorted(counts)

    def test_deterministic(self, stats):
        query = parse_query(QUERY)
        plan = build_strict_plan(query, UNIFORM_WEIGHTS)
        first = selectivity_ordered(plan, stats)
        second = selectivity_ordered(plan, stats)
        assert [j.var for j in first.joins] == [j.var for j in second.joins]


class TestCorrectnessUnderReordering:
    def test_strict_answers_unchanged(self, executor, stats):
        query = parse_query(QUERY)
        plan = build_strict_plan(query, UNIFORM_WEIGHTS)
        baseline = executor.run(plan, mode=STRICT)
        reordered = executor.run(selectivity_ordered(plan, stats), mode=STRICT)
        assert sorted(a.node_id for a in baseline.answers) == sorted(
            a.node_id for a in reordered.answers
        )

    def test_encoded_answers_and_scores_unchanged(self, executor, stats, doc):
        query = parse_query(QUERY)
        model = PenaltyModel(stats, IREngine(doc))
        schedule = RelaxationSchedule(query, model)
        plan = build_encoded_plan(schedule, len(schedule))
        baseline = executor.run(plan, mode=SSO_MODE)
        reordered = executor.run(
            selectivity_ordered(plan, stats), mode=SSO_MODE
        )
        assert {
            a.node_id: round(a.score.structural, 9) for a in baseline.answers
        } == {
            a.node_id: round(a.score.structural, 9) for a in reordered.answers
        }
