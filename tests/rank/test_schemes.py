"""The three ranking schemes and their paper-mandated properties."""

import pytest

from repro.rank import (
    COMBINED,
    KEYWORD_FIRST,
    STRUCTURE_FIRST,
    AnswerScore,
    Combined,
    ScoredAnswer,
    rank_answers,
    scheme_by_name,
)


class FakeNode:
    def __init__(self, node_id):
        self.node_id = node_id
        self.tag = "n"


def answer(node_id, ss, ks):
    return ScoredAnswer(node=FakeNode(node_id), score=AnswerScore(ss, ks))


class TestOrdering:
    def test_structure_first_orders_by_ss(self):
        answers = [answer(1, 1.0, 0.9), answer(2, 2.0, 0.1)]
        ranked = rank_answers(answers, STRUCTURE_FIRST)
        assert [a.node_id for a in ranked] == [2, 1]

    def test_structure_first_breaks_ties_on_ks(self):
        answers = [answer(1, 2.0, 0.1), answer(2, 2.0, 0.9)]
        ranked = rank_answers(answers, STRUCTURE_FIRST)
        assert [a.node_id for a in ranked] == [2, 1]

    def test_keyword_first_orders_by_ks(self):
        answers = [answer(1, 1.0, 0.9), answer(2, 2.0, 0.1)]
        ranked = rank_answers(answers, KEYWORD_FIRST)
        assert [a.node_id for a in ranked] == [1, 2]

    def test_combined_orders_by_sum(self):
        answers = [answer(1, 2.0, 0.1), answer(2, 1.5, 0.9)]
        ranked = rank_answers(answers, COMBINED)
        assert [a.node_id for a in ranked] == [2, 1]

    def test_custom_combined_function(self):
        scheme = Combined(combine=lambda ss, ks: ks)  # keyword only
        answers = [answer(1, 9.0, 0.1), answer(2, 0.0, 0.5)]
        ranked = rank_answers(answers, scheme)
        assert ranked[0].node_id == 2

    def test_equal_scores_fall_back_to_document_order(self):
        answers = [answer(9, 1.0, 0.5), answer(3, 1.0, 0.5)]
        ranked = rank_answers(answers, STRUCTURE_FIRST)
        assert [a.node_id for a in ranked] == [3, 9]

    def test_top_k_truncation(self):
        answers = [answer(i, float(i), 0.0) for i in range(10)]
        ranked = rank_answers(answers, STRUCTURE_FIRST, k=3)
        assert [a.node_id for a in ranked] == [9, 8, 7]


class TestSchemeProtocol:
    def test_lookup_by_name(self):
        assert scheme_by_name("structure-first") is STRUCTURE_FIRST
        assert scheme_by_name("keyword-first") is KEYWORD_FIRST
        assert scheme_by_name("combined") is COMBINED

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown ranking scheme"):
            scheme_by_name("alphabetical")

    def test_keyword_first_requires_all_relaxations(self):
        assert KEYWORD_FIRST.requires_all_relaxations
        assert not STRUCTURE_FIRST.requires_all_relaxations
        assert not COMBINED.requires_all_relaxations

    def test_keyword_headroom(self):
        assert STRUCTURE_FIRST.keyword_headroom(3) == 0.0
        assert COMBINED.keyword_headroom(3) == 3.0


class TestPaperProperties:
    def test_relevance_scoring_property(self):
        """Property 1 (§4.2): a relaxation's answers never outrank exact
        answers structurally. Penalties are non-negative, so structural
        scores fall monotonically along a schedule — checked end to end."""
        from repro.ir import IREngine
        from repro.query import parse_query
        from repro.relax import PenaltyModel, RelaxationSchedule
        from repro.backend.stats import DocumentStatistics
        from repro.xmltree import parse

        doc = parse(
            "<r><a><b><c>gold</c></b></a><a><b>gold</b></a><a><c>x</c></a></r>"
        )
        model = PenaltyModel(DocumentStatistics(doc), IREngine(doc))
        query = parse_query('//a[./b[./c and .contains("gold")]]')
        schedule = RelaxationSchedule(query, model)
        scores = [
            schedule.structural_score(i) for i in range(len(schedule) + 1)
        ]
        assert all(x >= y for x, y in zip(scores, scores[1:]))

    def test_order_invariance_form(self):
        """Theorem 3: any aggregate over satisfied-predicate weights is
        order invariant. Scores built as multiset sums cannot depend on
        drop order — verified by summing in shuffled orders."""
        import random

        weights = [1.0, 0.75, 0.5, 0.25]
        rng = random.Random(1)
        reference = sum(weights)
        for _ in range(10):
            shuffled = weights[:]
            rng.shuffle(shuffled)
            assert sum(shuffled) == pytest.approx(reference)
