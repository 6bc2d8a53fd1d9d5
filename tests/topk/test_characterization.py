"""Characterization: pinned answers and control-flow counters.

Every top-K algorithm has one control loop that runs unsharded against an
:class:`~repro.topk.base.ExecutionSession` and sharded against a
:class:`~repro.sharding.ScatterSession`.  On the skewed corpus of
``benchmarks/bench_sharded_scaling.py`` (every marker document on shard 0
of a round-robin layout), this module pins — for all five strategies, all
three ranking schemes, unsharded and over 2 and 4 shards — the ranked
answers with their scores and the counters that expose the control flow:
``relaxations_used``, ``levels_evaluated``, ``restarts``, ``shard_rounds``
and ``shards_pruned``.  ``k=3`` is the benchmark's K; ``k=20`` asks for
more answers than exist, so every walk runs the whole schedule.

The values were recorded from the scatter implementation that predates
the shared loops and must not drift: a change here is a change in what
the engine does, not a refactoring.
"""

import pytest

from benchmarks.bench_sharded_scaling import DOC_COUNT, QUERY, _document
from repro.backend.sharded import RoundRobinRouter, ShardedBackend
from repro.collection import Corpus
from repro.engine import Engine

ALGORITHMS = ("dpo", "sso", "hybrid", "naive", "ir-first")
SCHEMES = ("structure-first", "keyword-first", "combined")

#: Ranked (node_id, structural, keyword) answers; the same in every cell.
ANSWERS = {
    3: ((2, 3.0, 0.5), (102, 3.0, 0.5), (202, 3.0, 0.5)),
    20: (
        (2, 3.0, 0.5), (102, 3.0, 0.5), (202, 3.0, 0.5), (302, 3.0, 0.5),
        (402, 3.0, 0.5), (502, 3.0, 0.5), (602, 3.0, 0.5), (702, 3.0, 0.5),
        (802, 3.0, 0.5), (902, 3.0, 0.5), (1002, 3.0, 0.5),
        (1102, 3.0, 0.5), (1202, 3.0, 0.5), (1302, 3.0, 0.5),
        (1402, 3.0, 0.5), (1502, 3.0, 0.5),
    ),
}

#: (algorithm, scheme, shards, k) -> (relaxations_used, levels_evaluated,
#: restarts, shard_rounds, shards_pruned); shards=1 is the unsharded engine.
COUNTERS = {
    ('dpo', 'structure-first', 1, 3): (0, 1, 0, 0, 0),
    ('dpo', 'keyword-first', 1, 3): (5, 6, 0, 0, 0),
    ('dpo', 'combined', 1, 3): (0, 1, 0, 0, 0),
    ('sso', 'structure-first', 1, 3): (0, 1, 0, 0, 0),
    ('sso', 'keyword-first', 1, 3): (5, 1, 0, 0, 0),
    ('sso', 'combined', 1, 3): (0, 1, 0, 0, 0),
    ('hybrid', 'structure-first', 1, 3): (0, 1, 0, 0, 0),
    ('hybrid', 'keyword-first', 1, 3): (5, 1, 0, 0, 0),
    ('hybrid', 'combined', 1, 3): (0, 1, 0, 0, 0),
    ('naive', 'structure-first', 1, 3): (5, 6, 0, 0, 0),
    ('naive', 'keyword-first', 1, 3): (5, 6, 0, 0, 0),
    ('naive', 'combined', 1, 3): (5, 6, 0, 0, 0),
    ('ir-first', 'structure-first', 1, 3): (0, 1, 0, 0, 0),
    ('ir-first', 'keyword-first', 1, 3): (5, 6, 0, 0, 0),
    ('ir-first', 'combined', 1, 3): (0, 1, 0, 0, 0),
    ('dpo', 'structure-first', 2, 3): (0, 2, 0, 1, 0),
    ('dpo', 'keyword-first', 2, 3): (5, 7, 0, 6, 1),
    ('dpo', 'combined', 2, 3): (0, 2, 0, 1, 0),
    ('sso', 'structure-first', 2, 3): (0, 2, 0, 1, 0),
    ('sso', 'keyword-first', 2, 3): (5, 2, 0, 1, 0),
    ('sso', 'combined', 2, 3): (0, 2, 0, 1, 0),
    ('hybrid', 'structure-first', 2, 3): (0, 2, 0, 1, 0),
    ('hybrid', 'keyword-first', 2, 3): (5, 2, 0, 1, 0),
    ('hybrid', 'combined', 2, 3): (0, 2, 0, 1, 0),
    ('naive', 'structure-first', 2, 3): (5, 2, 0, 1, 2),
    ('naive', 'keyword-first', 2, 3): (5, 7, 0, 6, 1),
    ('naive', 'combined', 2, 3): (5, 2, 0, 1, 2),
    ('ir-first', 'structure-first', 2, 3): (0, 2, 0, 1, 0),
    ('ir-first', 'keyword-first', 2, 3): (5, 7, 0, 6, 1),
    ('ir-first', 'combined', 2, 3): (0, 2, 0, 1, 0),
    ('dpo', 'structure-first', 4, 3): (0, 4, 0, 1, 0),
    ('dpo', 'keyword-first', 4, 3): (5, 9, 0, 6, 3),
    ('dpo', 'combined', 4, 3): (0, 4, 0, 1, 0),
    ('sso', 'structure-first', 4, 3): (0, 4, 0, 1, 0),
    ('sso', 'keyword-first', 4, 3): (5, 4, 0, 1, 0),
    ('sso', 'combined', 4, 3): (0, 4, 0, 1, 0),
    ('hybrid', 'structure-first', 4, 3): (0, 4, 0, 1, 0),
    ('hybrid', 'keyword-first', 4, 3): (5, 4, 0, 1, 0),
    ('hybrid', 'combined', 4, 3): (0, 4, 0, 1, 0),
    ('naive', 'structure-first', 4, 3): (5, 4, 0, 1, 4),
    ('naive', 'keyword-first', 4, 3): (5, 9, 0, 6, 3),
    ('naive', 'combined', 4, 3): (5, 4, 0, 1, 4),
    ('ir-first', 'structure-first', 4, 3): (0, 4, 0, 1, 0),
    ('ir-first', 'keyword-first', 4, 3): (5, 9, 0, 6, 3),
    ('ir-first', 'combined', 4, 3): (0, 4, 0, 1, 0),
    ('dpo', 'structure-first', 1, 20): (5, 6, 0, 0, 0),
    ('dpo', 'keyword-first', 1, 20): (5, 6, 0, 0, 0),
    ('dpo', 'combined', 1, 20): (5, 6, 0, 0, 0),
    ('sso', 'structure-first', 1, 20): (5, 1, 0, 0, 0),
    ('sso', 'keyword-first', 1, 20): (5, 1, 0, 0, 0),
    ('sso', 'combined', 1, 20): (5, 1, 0, 0, 0),
    ('hybrid', 'structure-first', 1, 20): (5, 1, 0, 0, 0),
    ('hybrid', 'keyword-first', 1, 20): (5, 1, 0, 0, 0),
    ('hybrid', 'combined', 1, 20): (5, 1, 0, 0, 0),
    ('naive', 'structure-first', 1, 20): (5, 6, 0, 0, 0),
    ('naive', 'keyword-first', 1, 20): (5, 6, 0, 0, 0),
    ('naive', 'combined', 1, 20): (5, 6, 0, 0, 0),
    ('ir-first', 'structure-first', 1, 20): (5, 6, 0, 0, 0),
    ('ir-first', 'keyword-first', 1, 20): (5, 6, 0, 0, 0),
    ('ir-first', 'combined', 1, 20): (5, 6, 0, 0, 0),
    ('dpo', 'structure-first', 2, 20): (5, 12, 0, 6, 0),
    ('dpo', 'keyword-first', 2, 20): (5, 12, 0, 6, 0),
    ('dpo', 'combined', 2, 20): (5, 12, 0, 6, 0),
    ('sso', 'structure-first', 2, 20): (5, 2, 0, 1, 0),
    ('sso', 'keyword-first', 2, 20): (5, 2, 0, 1, 0),
    ('sso', 'combined', 2, 20): (5, 2, 0, 1, 0),
    ('hybrid', 'structure-first', 2, 20): (5, 2, 0, 1, 0),
    ('hybrid', 'keyword-first', 2, 20): (5, 2, 0, 1, 0),
    ('hybrid', 'combined', 2, 20): (5, 2, 0, 1, 0),
    ('naive', 'structure-first', 2, 20): (5, 12, 0, 6, 0),
    ('naive', 'keyword-first', 2, 20): (5, 12, 0, 6, 0),
    ('naive', 'combined', 2, 20): (5, 12, 0, 6, 0),
    ('ir-first', 'structure-first', 2, 20): (5, 12, 0, 6, 0),
    ('ir-first', 'keyword-first', 2, 20): (5, 12, 0, 6, 0),
    ('ir-first', 'combined', 2, 20): (5, 12, 0, 6, 0),
    ('dpo', 'structure-first', 4, 20): (5, 24, 0, 6, 0),
    ('dpo', 'keyword-first', 4, 20): (5, 24, 0, 6, 0),
    ('dpo', 'combined', 4, 20): (5, 24, 0, 6, 0),
    ('sso', 'structure-first', 4, 20): (5, 4, 0, 1, 0),
    ('sso', 'keyword-first', 4, 20): (5, 4, 0, 1, 0),
    ('sso', 'combined', 4, 20): (5, 4, 0, 1, 0),
    ('hybrid', 'structure-first', 4, 20): (5, 4, 0, 1, 0),
    ('hybrid', 'keyword-first', 4, 20): (5, 4, 0, 1, 0),
    ('hybrid', 'combined', 4, 20): (5, 4, 0, 1, 0),
    ('naive', 'structure-first', 4, 20): (5, 24, 0, 6, 0),
    ('naive', 'keyword-first', 4, 20): (5, 24, 0, 6, 0),
    ('naive', 'combined', 4, 20): (5, 24, 0, 6, 0),
    ('ir-first', 'structure-first', 4, 20): (5, 24, 0, 6, 0),
    ('ir-first', 'keyword-first', 4, 20): (5, 24, 0, 6, 0),
    ('ir-first', 'combined', 4, 20): (5, 24, 0, 6, 0),
}


@pytest.fixture(scope="module")
def engines():
    """shards -> engine; 1 is the unsharded engine over one Corpus."""
    built = {}
    for shards in (1, 2, 4):
        if shards == 1:
            source = Corpus()
        else:
            source = ShardedBackend.in_memory(
                shards, router=RoundRobinRouter()
            )
        for index in range(DOC_COUNT):
            source.add_document(_document(index), name="doc%d" % index)
        built[shards] = Engine(source, cache=False)
    yield built
    for engine in built.values():
        close = getattr(engine.context, "close", None)
        if close is not None:
            close()


@pytest.mark.parametrize("k", sorted(ANSWERS))
@pytest.mark.parametrize("shards", (1, 2, 4))
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_pinned(engines, algorithm, shards, k):
    engine = engines[shards]
    for scheme in SCHEMES:
        result = engine.query(QUERY, k=k, scheme=scheme, algorithm=algorithm)
        cell = (algorithm, scheme, shards, k)
        assert tuple(
            (answer.node_id, round(answer.score.structural, 9),
             round(answer.score.keyword, 9))
            for answer in result.answers
        ) == ANSWERS[k], cell
        assert (
            result.relaxations_used,
            result.levels_evaluated,
            result.restarts,
            result.shard_rounds,
            result.shards_pruned,
        ) == COUNTERS[cell], cell


def test_every_cell_is_pinned():
    assert len(COUNTERS) == (
        len(ALGORITHMS) * len(SCHEMES) * 3 * len(ANSWERS)
    )
