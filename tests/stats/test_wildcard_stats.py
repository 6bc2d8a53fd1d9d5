"""Wildcard (untagged) statistics marginals.

Regression for a bug found by property testing: pair counts keyed only by
exact tags made wildcard-variable penalties collapse to zero, letting
relaxed answers tie with exact matches.
"""

import pytest

from repro.backend.stats import DocumentStatistics
from repro.xmltree import parse


@pytest.fixture(scope="module")
def stats():
    return DocumentStatistics(
        parse("<r><a><b/><c/></a><a><b/></a></r>")
    )


class TestMarginals:
    def test_any_child_of_tag(self, stats):
        assert stats.pc_count("a", None) == 3  # b, c, b

    def test_any_parent_of_tag(self, stats):
        assert stats.pc_count(None, "b") == 2

    def test_total_pc_pairs(self, stats):
        # every non-root node contributes one pc pair
        assert stats.pc_count(None, None) == 5

    def test_ad_marginals(self, stats):
        assert stats.ad_count("r", None) == 5
        assert stats.ad_count(None, "b") == 4  # each b has a and r above

    def test_fraction_with_wildcard_child(self, stats):
        # both <a> elements have at least one child of any tag
        assert stats.pc_child_fraction("a", None) == pytest.approx(1.0)

    def test_wildcard_penalties_nonzero(self, stats):
        from repro.query import Ad, parse_query
        from repro.relax import PenaltyModel

        model = PenaltyModel(stats)
        query = parse_query("//a[.//*]")
        penalty = model.ad_drop_penalty(query, Ad("$1", "$2"))
        assert penalty > 0.0
