"""The Engine serving core and the FleXPath compatibility facade.

The top of the Engine/Session/Backend split (DESIGN §11, mirroring
SQLAlchemy's engine/pool/dialect architecture):

- :class:`Engine` is the process-wide serving core.  It owns the
  :class:`~repro.backend.base.StorageBackend`, the per-backend
  :class:`~repro.topk.base.QueryContext` (and with it all three cache
  tiers), the five shared stateless strategies, the RWLock discipline (the
  backend's lock), the process metrics registry handle, and a
  :class:`~repro.session.SessionPool`.
- ``Engine.connect()`` checks a :class:`~repro.session.Session` out of the
  pool; the session runs queries with per-query deadline/cancellation
  hooks and returns itself on ``close()``/``with`` exit.
- :class:`FleXPath` — the paper's Figure 7 facade — is a thin
  compatibility layer over ``Engine.connect()``: every historical entry
  point (``query``, ``query_many``, ``exact``, ``keyword_search``,
  ``relaxations``, ``explain``, the constructors) keeps its exact
  behavior, implemented by borrowing a pooled session per call.

Typical use::

    from repro import FleXPath

    engine = FleXPath.from_xml(xml_text)
    results = engine.query(
        '//article[.//algorithm and ./section[./paragraph'
        ' and .contains("XML" and "streaming")]]',
        k=10,
    )
    for answer in results.answers:
        print(answer.node.tag, answer.score)

or, SQLAlchemy-style, against the engine directly::

    from repro import Engine

    core = Engine.from_xml(xml_text)
    with core.connect() as session:
        result = session.query("//article[./title]", k=5, deadline_ms=50)
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

from repro.backend import as_backend
from repro.cache import ResultCache
from repro.errors import FleXPathError
from repro.obs.metrics import REGISTRY
from repro.rank.schemes import STRUCTURE_FIRST
from repro.relax.penalties import UNIFORM_WEIGHTS
from repro.session import (
    DEFAULT_POOL_SIZE,
    SessionPool,
    coerce_query,
)
from repro.topk.base import QueryContext
from repro.topk.dpo import DPO
from repro.topk.hybrid import Hybrid
from repro.topk.ir_first import IRFirstDPO
from repro.topk.naive import NaiveRewriting
from repro.topk.sso import SSO
from repro.xmltree.parser import parse as parse_xml
from repro.xmltree.parser import parse_file as parse_xml_file

_ALGORITHMS = {
    "dpo": DPO,
    "sso": SSO,
    "hybrid": Hybrid,
    "naive": NaiveRewriting,
    "ir-first": IRFirstDPO,
}

DEFAULT_ALGORITHM = "hybrid"


class Engine:
    """Process-wide serving core: backend, caches, strategies, pool.

    One engine per served backend; everything on it is shared and
    thread-safe.  Queries go through pooled sessions (:meth:`connect`) or
    the :meth:`query` / :meth:`query_many` conveniences that borrow one
    internally.

    ``cache=False`` is the kill switch for *both* caching tiers: the
    per-context :class:`~repro.plans.eval_cache.EvaluationCache` is
    disabled and no :class:`~repro.cache.ResultCache` is attached, so
    every query recomputes from scratch (byte-identical answers, useful
    for benchmarking and verification).
    """

    def __init__(self, source, weights=UNIFORM_WEIGHTS, cache=True,
                 result_cache_size=None, plan_cache_size=None,
                 pool_size=DEFAULT_POOL_SIZE):
        self._backend = as_backend(source)
        if self._backend.document is None:
            # A sharded backend has no unified node table: queries go
            # through the scatter-gather coordinator, which presents the
            # same context/strategy surface to sessions and caches.
            from repro.sharding import ShardedQueryContext, ShardedStrategy

            self._context = ShardedQueryContext(
                self._backend, weights=weights,
                plan_cache_size=plan_cache_size,
            )
            self._algorithms = {
                name: ShardedStrategy(cls, self._context)
                for name, cls in _ALGORITHMS.items()
            }
        else:
            self._context = QueryContext(
                self._backend, weights=weights, plan_cache_size=plan_cache_size
            )
            self._algorithms = {
                name: cls(self._context) for name, cls in _ALGORITHMS.items()
            }
        if cache:
            self._result_cache = (
                ResultCache() if result_cache_size is None
                else ResultCache(result_cache_size)
            )
            self._backend.subscribe(self._on_backend_growth)
        else:
            self._context.eval_cache.enabled = False
            self._result_cache = None
        self._pool = SessionPool(self, size=pool_size)
        self.metrics = REGISTRY
        self._trace_sink = None
        self._trace_sampler = None
        self._obs_server = None

    def _on_backend_growth(self, backend, start_id, end_id):
        # The backend version in the key already fences stale entries; the
        # eager clear also frees the memory their answers pin.
        self._result_cache.invalidate()

    # -- constructors ------------------------------------------------------------

    @classmethod
    def from_xml(cls, text, **kwargs):
        """Build an engine from an XML string."""
        return cls(parse_xml(text), **kwargs)

    @classmethod
    def from_file(cls, path, **kwargs):
        """Build an engine from an XML file."""
        return cls(parse_xml_file(path), **kwargs)

    @classmethod
    def from_corpus(cls, corpus, **kwargs):
        """Build an engine over a live corpus (stays subscribed)."""
        return cls(corpus, **kwargs)

    @classmethod
    def open(cls, path, **kwargs):
        """Open (or initialize) a persistent on-disk corpus directory.

        Cold start costs mmap + WAL replay — no XML parse, no index
        rebuild.  The returned engine serves a
        :class:`~repro.backend.disk.DiskBackend`; ingest through it is
        write-ahead durable, and ``engine.backend.compact()`` seals the
        WAL tail into the next segment generation.
        """
        import os

        from repro.backend.disk import DiskBackend

        if os.path.exists(os.path.join(path, "MANIFEST.json")):
            return cls(DiskBackend.open(path), **kwargs)
        return cls(DiskBackend.create(path), **kwargs)

    @classmethod
    def sharded(cls, shard_count=4, router=None, path=None, **kwargs):
        """Build an engine over a document-partitioned sharded corpus.

        With ``path=None``, ``shard_count`` fresh in-process shards; with a
        path, one WAL-durable :class:`~repro.backend.disk.DiskBackend`
        directory per shard under it (``path/shard-0000`` ...), reopenable
        with the same call.  ``router`` picks the document→shard placement
        policy (default: stable hash of the document name).  Queries
        scatter over the shards in parallel and merge with the
        maxScoreGrowth early-termination bound; answers, scores, and
        penalties are identical to an unsharded engine over the same
        ingest sequence.
        """
        from repro.backend.sharded import ShardedBackend

        if path is None:
            backend = ShardedBackend.in_memory(shard_count, router=router)
        else:
            backend = ShardedBackend.open(
                path, shard_count=shard_count, router=router
            )
        return cls(backend, **kwargs)

    # -- shared state ------------------------------------------------------------

    @property
    def backend(self):
        """The :class:`~repro.backend.base.StorageBackend` being served."""
        return self._backend

    @property
    def context(self):
        """The shared :class:`~repro.topk.base.QueryContext`."""
        return self._context

    @property
    def document(self):
        return self._backend.document

    @property
    def corpus(self):
        """The bound corpus, or None when built from a single document."""
        return self._backend.corpus

    @property
    def lock(self):
        """The backend's RWLock (queries read, ingest writes)."""
        return self._backend.lock

    @property
    def result_cache(self):
        """The tier-2 :class:`~repro.cache.ResultCache`, or None when off."""
        return self._result_cache

    @property
    def pool(self):
        """The engine's :class:`~repro.session.SessionPool`."""
        return self._pool

    @property
    def algorithms(self):
        """Name → shared stateless strategy instance."""
        return self._algorithms

    def strategy(self, algorithm=None):
        """The shared strategy for ``algorithm`` (None = the default)."""
        if algorithm is None:
            algorithm = DEFAULT_ALGORITHM
        try:
            return self._algorithms[algorithm.lower()]
        except (KeyError, AttributeError):
            raise FleXPathError(
                "unknown algorithm %r (choose from %s)"
                % (algorithm, ", ".join(sorted(_ALGORITHMS)))
            ) from None

    def cache_info(self):
        """One consistent schema across all three caching tiers.

        Every tier reports the same keys — ``entries``, ``max_entries``,
        ``hits``, ``misses``, ``evictions``, ``invalidations`` — under
        ``plan_cache`` / ``eval_cache`` / ``result_cache`` (the last is
        None when caching is disabled).
        """
        return {
            "enabled": self._result_cache is not None,
            "plan_cache": self._context.plan_cache.info(),
            "eval_cache": self._context.eval_cache.info(),
            "result_cache": (
                self._result_cache.info()
                if self._result_cache is not None
                else None
            ),
        }

    # -- observability -----------------------------------------------------------

    @property
    def trace_sink(self):
        """The configured :class:`~repro.obs.export.TraceSink`, or None."""
        return self._trace_sink

    @property
    def trace_sampler(self):
        """The :class:`~repro.obs.export.TraceSampler` paired with the sink."""
        return self._trace_sampler

    def configure_tracing(self, sink, sample_rate=1.0):
        """Attach a span-export sink with probabilistic per-query sampling.

        With a sink attached, each ``session.query`` call rolls against
        ``sample_rate``; sampled queries run traced (write lock, result
        cache bypassed) and export their span tree to the sink, while the
        caller still receives the bare result.  Explicit ``trace=True``
        queries always export when a sink is configured.

        ``configure_tracing(None)`` detaches the sink (and stops
        sampling).  The sink's lifecycle stays with the caller — the
        engine never closes it.
        """
        from repro.obs.export import TraceSampler

        if sink is None:
            self._trace_sink = None
            self._trace_sampler = None
            return None
        self._trace_sampler = TraceSampler(sample_rate)
        self._trace_sink = sink
        return sink

    def serve_metrics(self, port=0, host="127.0.0.1"):
        """Start the embedded observability HTTP endpoint (idempotent).

        Serves ``/metrics`` (Prometheus text), ``/metrics.json``,
        ``/healthz``, and ``/statusz`` from a daemon thread;
        ``port=0`` binds an ephemeral port.  Returns the running
        :class:`~repro.obs.http.ObservabilityServer` (its ``.port`` is
        the bound port); calling again returns the same server.
        """
        if self._obs_server is None:
            from repro.obs.http import ObservabilityServer

            server = ObservabilityServer(self, host=host, port=port)
            server.start()
            self._obs_server = server
        return self._obs_server

    @property
    def observability_server(self):
        """The running observability server, or None when never started."""
        return self._obs_server

    # -- serving -----------------------------------------------------------------

    def connect(self):
        """Check a :class:`~repro.session.Session` out of the pool.

        Use as a context manager; ``close()`` (or the ``with`` exit)
        returns the session::

            with engine.connect() as session:
                session.query("//article", k=5)
        """
        return self._pool.checkout()

    def query(self, query, **kwargs):
        """Evaluate one query on a borrowed pooled session.

        Accepts everything :meth:`repro.session.Session.query` does,
        including ``deadline_ms`` and ``trace``.
        """
        session = self._pool.checkout()
        try:
            return session.query(query, **kwargs)
        finally:
            session.close()

    def query_many(self, queries, k=10, scheme=STRUCTURE_FIRST,
                   algorithm=None, max_relaxations=None, workers=4,
                   deadline_ms=None, return_exceptions=False):
        """Evaluate a batch concurrently; results keep input order.

        Each query runs through :meth:`query` on a worker thread — its own
        pooled session, same caching, metrics, and events as a sequential
        loop — under the backend read lock, so the batch interleaves
        safely with concurrent ingest.  ``deadline_ms`` applies per query,
        not to the whole batch.

        One failing query never aborts its siblings: the whole batch runs
        to completion regardless.  Failures then surface together as a
        :class:`~repro.errors.QueryBatchError` carrying every
        ``(index, exception)`` pair in input order plus the successful
        results — or, with ``return_exceptions=True``, inline in the
        returned list at their query's position, asyncio-gather style.

        Args:
            queries: iterable of XPath-fragment strings or TPQs.
            workers: thread-pool width (1 degrades to a plain loop).
            return_exceptions: put exceptions in the result list instead
                of raising ``QueryBatchError``.
        """
        queries = list(queries)
        if not queries:
            return []
        if workers < 1:
            raise FleXPathError("workers must be >= 1")

        outcomes = [None] * len(queries)
        errors = [None] * len(queries)

        def run(index):
            try:
                outcomes[index] = self.query(
                    queries[index], k=k, scheme=scheme, algorithm=algorithm,
                    max_relaxations=max_relaxations, deadline_ms=deadline_ms,
                )
            except Exception as exc:
                errors[index] = exc

        if workers == 1 or len(queries) == 1:
            for index in range(len(queries)):
                run(index)
        else:
            with ThreadPoolExecutor(
                max_workers=min(workers, len(queries))
            ) as pool:
                for future in [
                    pool.submit(run, index) for index in range(len(queries))
                ]:
                    future.result()

        failed = [
            (index, exc) for index, exc in enumerate(errors) if exc is not None
        ]
        if not failed:
            return outcomes
        if return_exceptions:
            return [
                exc if exc is not None else outcome
                for outcome, exc in zip(outcomes, errors)
            ]
        from repro.errors import QueryBatchError

        raise QueryBatchError(failed, outcomes)

    def __repr__(self):
        return "Engine(%r, pool=%r)" % (self._backend, self._pool)


class FleXPath:
    """Flexible structure + full-text querying over one XML document.

    The paper's Figure 7 facade, kept API-identical across the
    Engine/Session/Backend split: it now wires an :class:`Engine` and
    borrows a pooled session per call.  Use :attr:`engine` (or build an
    :class:`Engine` directly) for explicit session control.
    """

    def __init__(self, document, weights=UNIFORM_WEIGHTS, cache=True,
                 result_cache_size=None):
        """Wire the facade over a document, corpus, or collection.

        ``cache=False`` disables both caching tiers (see :class:`Engine`).
        """
        self._engine = Engine(
            document, weights=weights, cache=cache,
            result_cache_size=result_cache_size,
        )
        self._context = self._engine.context
        self._algorithms = self._engine.algorithms

    # -- constructors ------------------------------------------------------------

    @classmethod
    def from_xml(cls, text, weights=UNIFORM_WEIGHTS, cache=True,
                 result_cache_size=None):
        """Build an engine from an XML string."""
        return cls(parse_xml(text), weights=weights, cache=cache,
                   result_cache_size=result_cache_size)

    @classmethod
    def from_file(cls, path, weights=UNIFORM_WEIGHTS, cache=True,
                  result_cache_size=None):
        """Build an engine from an XML file."""
        return cls(parse_xml_file(path), weights=weights, cache=cache,
                   result_cache_size=result_cache_size)

    @classmethod
    def from_corpus(cls, corpus, weights=UNIFORM_WEIGHTS, cache=True,
                    result_cache_size=None):
        """Build an engine over a live :class:`~repro.collection.Corpus`.

        The engine stays subscribed: documents added to the corpus after
        construction become queryable immediately, with index and
        statistics extended over just the new nodes (and both caching
        tiers invalidated).
        """
        return cls(corpus, weights=weights, cache=cache,
                   result_cache_size=result_cache_size)

    @classmethod
    def from_files(cls, paths, weights=UNIFORM_WEIGHTS, cache=True,
                   result_cache_size=None):
        """Build an engine over a collection parsed from XML files."""
        from repro.collection import DocumentCollection

        return cls(
            DocumentCollection.from_files(paths), weights=weights, cache=cache,
            result_cache_size=result_cache_size,
        )

    @classmethod
    def from_dump(cls, path, weights=UNIFORM_WEIGHTS, cache=True,
                  result_cache_size=None):
        """Build an engine from a ``flexpath-doc`` dump file."""
        from repro.xmltree.storage import load_document

        return cls(load_document(path), weights=weights, cache=cache,
                   result_cache_size=result_cache_size)

    # -- accessors ----------------------------------------------------------------

    @property
    def engine(self):
        """The underlying :class:`Engine` serving core."""
        return self._engine

    @property
    def document(self):
        return self._engine.document

    @property
    def corpus(self):
        """The bound corpus, or None when built from a single document."""
        return self._engine.corpus

    @property
    def context(self):
        """The underlying :class:`~repro.topk.base.QueryContext`."""
        return self._context

    @property
    def result_cache(self):
        """The tier-2 :class:`~repro.cache.ResultCache`, or None when off."""
        return self._engine.result_cache

    def cache_info(self):
        """A JSON-safe summary of all three caching tiers (one schema)."""
        return self._engine.cache_info()

    # -- querying -----------------------------------------------------------------

    def parse(self, query_text):
        """Parse an XPath-fragment string into a TPQ."""
        return coerce_query(query_text)

    def query(self, query, k=10, scheme=STRUCTURE_FIRST,
              algorithm=DEFAULT_ALGORITHM, max_relaxations=None, trace=False,
              deadline_ms=None):
        """Evaluate a top-K query with relaxation.

        Args:
            query: an XPath-fragment string or a :class:`~repro.query.tpq.TPQ`.
            k: how many answers to return.
            scheme: a ranking scheme object or name ("structure-first",
                "keyword-first", "combined").
            algorithm: "dpo", "sso", "hybrid", "naive", or "ir-first".
            max_relaxations: cap on relaxation schedule length (None = all).
            trace: when True, evaluate with tracing on and return a
                :class:`~repro.obs.QueryTrace` (the result is its
                ``.result``) instead of the bare result.
            deadline_ms: per-query evaluation budget; raises
                :class:`~repro.errors.QueryTimeoutError` on expiry.

        Returns:
            A :class:`~repro.topk.base.TopKResult`, or a
            :class:`~repro.obs.QueryTrace` wrapping one when ``trace``.
        """
        return self._engine.query(
            query, k=k, scheme=scheme, algorithm=algorithm,
            max_relaxations=max_relaxations, trace=trace,
            deadline_ms=deadline_ms,
        )

    def query_many(self, queries, k=10, scheme=STRUCTURE_FIRST,
                   algorithm=DEFAULT_ALGORITHM, max_relaxations=None,
                   workers=4, deadline_ms=None, return_exceptions=False):
        """Evaluate a batch of queries concurrently; results keep input order.

        Each query runs on its own pooled session worker — same caching,
        metrics, and events as a sequential loop — under the backend read
        lock, so the batch interleaves safely with concurrent ingest.
        A failing query never aborts its siblings; failures surface as a
        :class:`~repro.errors.QueryBatchError` after the whole batch ran
        (or inline with ``return_exceptions=True``).

        Args:
            queries: iterable of XPath-fragment strings or TPQs.
            workers: thread-pool width (1 degrades to a plain loop).
            deadline_ms: per-query (not whole-batch) evaluation budget.
            return_exceptions: put exceptions in the result list instead
                of raising ``QueryBatchError``.
        """
        return self._engine.query_many(
            queries, k=k, scheme=scheme, algorithm=algorithm,
            max_relaxations=max_relaxations, workers=workers,
            deadline_ms=deadline_ms, return_exceptions=return_exceptions,
        )

    def exact(self, query):
        """Evaluate with strict XPath semantics — no relaxation.

        Returns the list of matching nodes in document order (the baseline
        the paper's "strict interpretation" discussion refers to).
        """
        from time import perf_counter

        from repro.obs.events import HUB
        from repro.query.evaluate import evaluate

        tpq = coerce_query(query)
        query_text = query if isinstance(query, str) else tpq.to_xpath()
        if HUB.active:
            HUB.emit(
                "query_start",
                {
                    "query": query_text,
                    "k": None,
                    "algorithm": "exact",
                    "scheme": None,
                    "traced": False,
                },
            )
        started = perf_counter()
        try:
            with self._context.rwlock.read_locked():
                if self.document is None:
                    nodes = self._exact_sharded(tpq)
                else:
                    nodes = evaluate(
                        tpq, self.document,
                        contains_oracle=self._contains_oracle(),
                        virtual_root_id=self._engine.backend.virtual_root_id,
                    )
        except Exception:
            REGISTRY.inc("query.errors")
            raise
        seconds = perf_counter() - started
        if REGISTRY.enabled:
            REGISTRY.inc("exact.count")
            REGISTRY.observe("exact.seconds", seconds)
        if HUB.active:
            HUB.emit(
                "query_end",
                {
                    "query": query_text,
                    "k": None,
                    "algorithm": "exact",
                    "scheme": None,
                    "seconds": seconds,
                    "levels_evaluated": None,
                    "relaxations_used": None,
                    "answers": len(nodes),
                    "result": nodes,
                    "trace": None,
                    "cached": False,
                    "version": self._engine.backend.version,
                    "deadline_ms": None,
                    "outcome": "ok",
                },
            )
        return nodes

    def keyword_search(self, ftexpr_text, k=10):
        """Pure content-only search — the Q6 extreme of the spectrum.

        Evaluates a full-text expression with no structural template at all
        and returns the top-K most specific elements, ranked by keyword
        score (the CO search of the IR literature the paper builds on).
        """
        from repro.ir.ftexpr import parse_ftexpr

        expression = parse_ftexpr(ftexpr_text)
        with self._context.rwlock.read_locked():
            matches = self._context.ir.most_specific_matches(expression)
        return matches[:k]

    def relaxations(self, query, max_steps=None):
        """Return the relaxation schedule FleXPath would use for a query."""
        return self._context.schedule(
            coerce_query(query), max_steps=max_steps
        )

    def explain(self, query, k=10, scheme=STRUCTURE_FIRST):
        """Return a human-readable description of the evaluation strategy."""
        from repro.rank.schemes import scheme_by_name

        tpq = coerce_query(query)
        if isinstance(scheme, str):
            scheme = scheme_by_name(scheme)
        schedule = self._context.schedule(tpq)
        sso = self._algorithms["sso"]
        level = sso.choose_level(schedule, k, scheme, len(tpq.contains))
        lines = [
            "query: %s" % tpq.to_xpath(),
            "ranking scheme: %s" % scheme.name,
            "available relaxations: %d" % len(schedule),
            "estimated level to encode for K=%d: %d" % (k, level),
            "",
            schedule.describe(),
        ]
        return "\n".join(lines)

    # -- internals ------------------------------------------------------------------

    def _exact_sharded(self, tpq):
        """Strict evaluation over a sharded backend: per shard, merged.

        Every document lives whole inside one shard, so the union of
        per-shard strict answer sets (re-addressed to global ids) is the
        unsharded answer set; sorting by global id restores document
        order.  Caller holds the read lock.
        """
        from repro.backend.sharded import GlobalNode
        from repro.query.evaluate import evaluate

        backend = self._engine.backend
        nodes = []
        for shard_index, shard in enumerate(backend.shards):
            ir = shard.ir

            def oracle(node, ftexpr, _ir=ir):
                return _ir.satisfies(node, ftexpr)

            for node in evaluate(
                tpq, shard.document, contains_oracle=oracle,
                virtual_root_id=shard.virtual_root_id,
            ):
                global_id = backend.translate_id(shard_index, node.node_id)
                nodes.append(GlobalNode(node, global_id, shard_index))
        nodes.sort(key=lambda node: node.node_id)
        return nodes

    def _coerce_query(self, query):
        return coerce_query(query)

    def _contains_oracle(self):
        ir = self._context.ir

        def oracle(node, ftexpr):
            return ir.satisfies(node, ftexpr)

        return oracle
