"""The benchmark's three workloads.

Each workload makes its inputs from the seed, builds the serving state
(timed as set-up), computes its answer references outside every timed
window, and yields the ops of the timed phase.  An op is one call a
library user would make; its ``check`` compares the answers with the
reference, rounded to 1e-9, and a failed check counts like an op that
raised.

- ``paper-cold``: the paper's §6 queries over one in-memory XMark
  document, evaluation and result caches off.
- ``ingest-query``: an on-disk corpus taking interleaved writes,
  compactions and Zipf-skewed reads with every cache on.
- ``sharded-skew``: keyword-first top-K over two shards, one of which
  holds every document with the marker term.
"""

from __future__ import annotations

import os
import random
import shutil

from repro.backend.sharded import RoundRobinRouter, ShardedBackend
from repro.collection import Corpus
from repro.engine import Engine
from repro.workload import WorkloadGenerator
from repro.xmark import PAPER_QUERIES, generate_document
from repro.xmltree import parser, to_xml

ALGORITHMS = ("dpo", "sso", "hybrid")


def answer_key(result):
    """``(node id, structural, keyword)`` per answer, rounded to 1e-9."""
    return tuple(
        (answer.node_id, round(answer.score.structural, 9),
         round(answer.score.keyword, 9))
        for answer in result.answers
    )


def dominates(key, reference):
    """Every score of ``key`` >= the ``reference`` score at the same rank."""
    return len(key) == len(reference) and all(
        (mine[1], mine[2]) >= (theirs[1], theirs[2])
        for mine, theirs in zip(key, reference)
    )


class Op:
    """One timed call: ``run()`` does the work, ``check(result)`` judges it."""

    __slots__ = ("kind", "label", "run", "check")

    def __init__(self, kind, label, run, check):
        self.kind = kind
        self.label = label
        self.run = run
        self.check = check


def _accept(result):
    return True


def _cycles(seconds, per_second):
    """Cycles in a run of ``seconds``.

    Every run's op sequence is fixed by the seed and the run length, never
    by how fast the host happens to be: the amount of work, the corpus
    size the ingest workload reaches, and the plan-cache entries the
    feedback cost model leaves behind are the same on every run.  The
    rates are set so that a run takes about ``seconds`` on the reference
    host.
    """
    return max(3, round(seconds * per_second))


def _xml(target_bytes, seed):
    return to_xml(generate_document(target_bytes=target_bytes, seed=seed),
                  indent="")


def _zipf_sequence(keys, constant):
    """Endless keys at exactly Zipf frequencies: smooth weighted round-robin.

    The key of rank r comes up in proportion to 1 / r ** constant.
    Sampling keys independently made which keys, and so how many misses, a
    run drew vary by seed; this sequence is the same on every run.
    """
    weights = [1.0 / (rank + 1) ** constant for rank in range(len(keys))]
    total = sum(weights)
    credit = [0.0] * len(keys)
    while True:
        for rank, weight in enumerate(weights):
            credit[rank] += weight
        chosen = max(range(len(credit)), key=credit.__getitem__)
        credit[chosen] -= total
        yield keys[chosen]


class PaperCold:
    """§6 yardstick: Q1–Q3 and two contains queries × DPO/SSO/Hybrid."""

    name = "paper-cold"
    builds = 5
    # One cycle covers every cell once, so every cell has the same weight
    # in the percentiles; a traced run alternates whole cycles.
    cycle = 15
    CYCLES_PER_SECOND = 1.5
    K = 20
    QUERIES = dict(PAPER_QUERIES)
    QUERIES["gold1"] = '//item[./description[.contains("gold")] and ./mailbox]'
    QUERIES["gold2"] = ('//item[./description/parlist and '
                        './mailbox/mail[.contains("gold")]]')

    def __init__(self, seed, workdir, seconds):
        # The yardstick is the harness's "10MB" document itself (400 KB of
        # XMark, seed 42, about 9.8k nodes), as in the paper's figures.
        # Per-seed documents moved DPO's Q3 between 10 and 13 relaxation
        # levels (65-97 ms), so the slowest cell, and with it
        # query_p95_ms, varied by 20% between seeds.  The seed orders the
        # requests instead.
        self.text = _xml(400_000, 42)
        self.cells = [
            (name, algorithm)
            for name in self.QUERIES for algorithm in ALGORITHMS
        ]
        random.Random(seed).shuffle(self.cells)
        self.cycles = _cycles(seconds, self.CYCLES_PER_SECOND)
        self.checks = {}

    def build(self):
        engine = Engine(parser.parse(self.text), cache=False)
        engine.backend.statistics
        engine.backend.ir
        return engine

    def discard(self, engine):
        pass

    def prepare(self, engine):
        """Naive, SSO and Hybrid references; also warms the plan cache."""
        for name, text in self.QUERIES.items():
            naive = answer_key(engine.query(text, k=self.K,
                                            algorithm="naive"))
            keys = {
                algorithm: answer_key(engine.query(text, k=self.K,
                                                   algorithm=algorithm))
                for algorithm in ALGORITHMS
            }
            # DPO ≡ naive; SSO ≡ Hybrid, each dominating naive per rank
            # (SSO's per-predicate scoring dominates the per-level
            # specification by design, so SSO ≡ naive is not required).
            self.checks[(name, "dpo")] = (
                lambda key, naive=naive: key == naive)
            self.checks[(name, "sso")] = (
                lambda key, ref=keys["hybrid"], naive=naive:
                key == ref and dominates(key, naive))
            self.checks[(name, "hybrid")] = (
                lambda key, ref=keys["sso"], naive=naive:
                key == ref and dominates(key, naive))

    def ops(self, engine):
        for index in range(self.cycles * len(self.cells)):
            name, algorithm = self.cells[index % len(self.cells)]
            text = self.QUERIES[name]
            check = self.checks[(name, algorithm)]
            yield Op(
                "read", "%s.%s" % (algorithm, name),
                lambda text=text, algorithm=algorithm: engine.query(
                    text, k=self.K, algorithm=algorithm),
                lambda result, check=check: check(answer_key(result)),
            )

    def finish(self, engine):
        return {}

    def close(self, engine):
        pass


class IngestQuery:
    """Durable writes, compactions and cached reads on one corpus."""

    name = "ingest-query"
    builds = 5
    BASE_DOCUMENTS = 16
    QUERY_COUNT = 320
    K = 10
    # YCSB's request skew and read-mostly mix (Cooper et al., SoCC 2010):
    # Zipfian constant 0.99, and workload B's 95% reads / 5% writes.  The
    # program has no update, so a write inserts a new document.
    ZIPF_CONSTANT = 0.99
    WRITES_PER_BURST = 16
    READS_PER_BURST = 19 * WRITES_PER_BURST
    # Writes come in bursts, each sealed by a foreground compact() (the
    # program never compacts on its own), followed by the burst's reads.
    # Every write clears the result and plan caches; with YCSB's ratio
    # spread op by op they would be cleared every ~20 reads and their
    # capacity would never matter.  A run of 304 reads draws about 170
    # distinct keys, more than the result cache's 128 entries, so it
    # evicts.  QUERY_COUNT is set so that about 0.42 of the reads hit the
    # result cache by the keys' Zipf frequencies: the median read is then
    # a miss, and query_p50_ms measures evaluation, not the hit path.
    BURSTS_PER_SECOND = 0.16
    # Every 16th read is replayed against a fresh in-memory engine.
    SAMPLE_EVERY = 16
    # A traced run alternates untraced and traced bursts.
    cycle = WRITES_PER_BURST + 1 + READS_PER_BURST

    def __init__(self, seed, workdir, seconds):
        self.workdir = workdir
        self.bursts = _cycles(seconds, self.BURSTS_PER_SECOND)
        # Small XMark documents of about 20 KB and 480 nodes each; every
        # write inserts a document of its own.  The documents, the query
        # set and the read sequence are fixed, like paper-cold's document;
        # the seed orders the writes within each burst, so the corpus a
        # burst's reads see is the same on every seed.  The median read is
        # a cheap miss, in the steep low tail of the misses' latencies, so
        # any per-seed change in which reads miss moves query_p50_ms: a
        # per-seed query set moved it by 19% between seeds, per-seed
        # documents by 9%, and a per-seed read order (through LRU
        # evictions and evaluation-cache hits) by 9%.
        self.base = [_xml(20_000, index)
                     for index in range(self.BASE_DOCUMENTS)]
        queries = []
        for query in WorkloadGenerator(parser.parse(self.base[0]),
                                       seed=0).generate(
                                           self.QUERY_COUNT * 2):
            if query not in queries:
                queries.append(query)
        keys = [(query, algorithm)
                for query in queries[:self.QUERY_COUNT]
                for algorithm in ALGORITHMS]
        random.Random(0).shuffle(keys)
        popular = _zipf_sequence(keys, self.ZIPF_CONSTANT)
        rng = random.Random(seed)
        self.writes = []
        self.reads = []
        for burst in range(self.bursts):
            first = self.BASE_DOCUMENTS + burst * self.WRITES_PER_BURST
            texts = [_xml(20_000, first + index)
                     for index in range(self.WRITES_PER_BURST)]
            rng.shuffle(texts)
            self.writes.append(texts)
            self.reads.append(
                [next(popular) for _ in range(self.READS_PER_BURST)])
        self.builds_made = 0
        self.path = None
        self.acknowledged = []
        self.samples = []

    def _fresh_path(self):
        self.builds_made += 1
        path = os.path.join(self.workdir, "corpus-%d" % self.builds_made)
        shutil.rmtree(path, ignore_errors=True)
        return path

    def build(self):
        path = self._fresh_path()
        engine = Engine.open(path)
        for index, text in enumerate(self.base):
            engine.backend.add_document(parser.parse(text),
                                        name="base%03d" % index)
        engine.backend.compact()
        engine.backend.close()
        # The timed phase starts from a cold open; set-up forces every
        # lazy build so none of it moves into the first query.
        engine = Engine.open(path)
        engine.backend.statistics
        engine.backend.ir
        self.path = path
        return engine

    def discard(self, engine):
        engine.backend.close()
        shutil.rmtree(engine.backend.path, ignore_errors=True)

    def prepare(self, engine):
        pass

    def ops(self, engine):
        backend = engine.backend
        reads = 0
        writes = 0
        for texts, burst in zip(self.writes, self.reads):
            for text in texts:
                name = "w%05d" % writes
                writes += 1
                yield Op(
                    "write", None,
                    lambda text=text, name=name: self._write(
                        backend, name, text),
                    _accept,
                )
            yield Op("compact", None, backend.compact, _accept)
            for query, algorithm in burst:
                reads += 1
                check = _accept
                if reads % self.SAMPLE_EVERY == 0:
                    check = self._sampler(query, algorithm)
                yield Op(
                    "read", None,
                    lambda query=query, algorithm=algorithm:
                    engine.query(query, k=self.K, algorithm=algorithm),
                    check,
                )

    def _write(self, backend, name, text):
        """XML text -> parse -> add_document; returns once fsynced."""
        root = backend.add_document(parser.parse(text), name=name)
        self.acknowledged.append((name, text))
        return root

    def _sampler(self, query, algorithm):
        def check(result):
            documents = len(self.base) + len(self.acknowledged)
            self.samples.append((documents, query, algorithm,
                                 answer_key(result)))
            return True

        return check

    def _disk_bytes(self):
        total = 0
        for directory, _, files in os.walk(self.path):
            for name in files:
                total += os.path.getsize(os.path.join(directory, name))
        return total

    def finish(self, engine):
        """Durability and answer checks after the timed phase.

        Returns ``{"failed": n, "disk_bytes_per_input_byte": r}``.
        """
        ratio = self._disk_bytes() / sum(
            len(text.encode("utf-8"))
            for text in self.base + [text for _, text in self.acknowledged])
        engine.backend.close()
        failed = 0
        # Every acknowledged write survives a close and reopen.
        reopened = Engine.open(self.path)
        expected = (["base%03d" % index for index in range(len(self.base))]
                    + [name for name, _ in self.acknowledged])
        present = set(reopened.corpus.names)
        failed += sum(1 for name in expected if name not in present)
        reopened.backend.close()
        # Sampled reads equal a fresh in-memory engine over the same
        # ingest sequence, at the same corpus size.
        corpus = Corpus()
        fresh = Engine(corpus, cache=False)
        sequence = ([("base%03d" % index, text)
                     for index, text in enumerate(self.base)]
                    + self.acknowledged)
        added = 0
        for documents, query, algorithm, key in sorted(
                self.samples, key=lambda sample: sample[0]):
            while added < documents:
                name, text = sequence[added]
                corpus.add_document(parser.parse(text), name=name)
                added += 1
            reference = answer_key(fresh.query(query, k=self.K,
                                               algorithm=algorithm))
            failed += reference != key
        return {"failed": failed, "disk_bytes_per_input_byte": ratio}

    def close(self, engine):
        shutil.rmtree(self.path, ignore_errors=True)


class ShardedSkew:
    """Keyword-first scatter-gather where one shard holds every marker."""

    name = "sharded-skew"
    builds = 9
    cycle = 9
    CYCLES_PER_SECOND = 2.0
    SHARDS = 2
    DOCUMENTS = 240
    K = 10
    MARKER = "xylograph"
    FILLERS = ("gold", "ring", "vintage", "chair", "stamp", "coin", "lamp",
               "vase")
    # Three queries x three algorithms: an odd number of cells keeps the
    # median inside one cell's latencies rather than in a gap between two.
    QUERIES = {
        # Prunable: shard 1 holds no marker, so its keyword ceiling drops
        # below the k-th score and the merge retires it.
        "marker": '//a[./b[.contains("%s")] and ./c[./d]]' % MARKER,
        "marker2": '//a[./b[.contains("%s")] and ./c]' % MARKER,
        # Unskewed: "gold" is spread evenly, nothing can be pruned.
        "even": '//a[./b[.contains("gold")] and ./c[./d]]',
    }

    def __init__(self, seed, workdir, seconds):
        rng = random.Random(seed)
        self.texts = []
        for index in range(self.DOCUMENTS):
            parts = ["<root>"]
            for child in range(6):
                # Round-robin placement puts every 4th document on shard 0.
                if index % 4 == 0 and child == 0:
                    word = self.MARKER
                else:
                    word = rng.choice(self.FILLERS)
                parts.append(
                    "<a><b>%s payload %d</b><c><d>%s extra</d></c></a>"
                    % (word, index, rng.choice(self.FILLERS)))
            parts.append("</root>")
            self.texts.append("".join(parts))
        self.cells = [(name, algorithm) for name in self.QUERIES
                      for algorithm in ALGORITHMS]
        rng.shuffle(self.cells)
        self.cycles = _cycles(seconds, self.CYCLES_PER_SECOND)
        self.references = {}

    def _load(self, backend):
        for index, text in enumerate(self.texts):
            backend.add_document(parser.parse(text), name="d%04d" % index)

    def build(self):
        backend = ShardedBackend.in_memory(self.SHARDS,
                                           router=RoundRobinRouter())
        self._load(backend)
        engine = Engine(backend, cache=False)
        for shard in backend.shards:
            shard.statistics
            shard.ir
        return engine

    def discard(self, engine):
        engine.context.close()

    def _query(self, engine, name, algorithm):
        return engine.query(self.QUERIES[name], k=self.K,
                            scheme="keyword-first", algorithm=algorithm)

    def prepare(self, engine):
        """References from an unsharded engine over the same documents."""
        corpus = Corpus()
        self._load(corpus)
        flat = Engine(corpus, cache=False)
        for name, algorithm in self.cells:
            self.references[(name, algorithm)] = answer_key(
                self._query(flat, name, algorithm))
            self._query(engine, name, algorithm)  # warm the plan cache

    def ops(self, engine):
        for index in range(self.cycles * len(self.cells)):
            name, algorithm = self.cells[index % len(self.cells)]
            reference = self.references[(name, algorithm)]
            yield Op(
                "read", "%s.%s" % (algorithm, name),
                lambda name=name, algorithm=algorithm: self._query(
                    engine, name, algorithm),
                lambda result, reference=reference:
                answer_key(result) == reference,
            )

    def finish(self, engine):
        return {}

    def close(self, engine):
        engine.context.close()


WORKLOADS = {
    workload.name: workload
    for workload in (PaperCold, IngestQuery, ShardedSkew)
}
