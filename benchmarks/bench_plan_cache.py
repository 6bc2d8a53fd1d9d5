"""Plan-cache benchmarks: cold vs warm compile, and the acceptance gate.

Not a paper figure. The compile/execute split moved everything knowable
before execution — closure, core, the relaxation schedule, and *every*
per-level strict and encoded plan — into the immutable
:class:`~repro.compiled.CompiledQuery`, fronted by the bounded,
corpus-version-fenced :class:`~repro.compiled.PlanCache`. These
benchmarks keep that split honest:

- ``test_compile_cold`` times a full compile (closure + minimize +
  schedule + all plan builds) with the plan cache bypassed;
- ``test_compile_warm`` times the same request through the cache — a
  dict probe returning the shared artifact;
- ``test_warm_compile_at_least_5x_faster`` is the plain (non-benchmark)
  assertion CI relies on: a warm hit must skip parse/closure/schedule/
  plan-build work and come back >= 5x faster than a cold compile.
"""

import os
from time import perf_counter

from benchmarks.harness import context_for, query
from repro.compiled import compile_query

#: Overridable so CI smoke runs can use a small document.
SIZE = os.environ.get("FLEXPATH_BENCH_SIZE", "10MB")
QUERY = "Q2"


def _context():
    return context_for(SIZE, seed=42)


def test_compile_cold(benchmark):
    """Full compile every round: closure, core, schedule, all plans."""
    context = _context()
    tpq = query(QUERY)
    compiled = benchmark(compile_query, context, tpq)
    assert compiled.level_count() == len(compiled.schedule) + 1


def test_compile_warm(benchmark):
    """Plan-cache hit every round: one locked dict probe."""
    context = _context()
    tpq = query(QUERY)
    context.compile(tpq)  # prime
    compiled = benchmark(context.compile, tpq)
    assert compiled is context.compile(tpq)
    assert context.plan_cache.info()["hits"] > 0


def test_warm_compile_at_least_5x_faster():
    """Acceptance gate: a warm hit skips closure/schedule/plan building."""
    context = _context()
    tpq = query(QUERY)
    rounds = 30

    context.plan_cache.invalidate()
    started = perf_counter()
    for _ in range(rounds):
        compile_query(context, tpq)
    cold = perf_counter() - started

    context.plan_cache.invalidate()
    context.compile(tpq)  # prime
    started = perf_counter()
    for _ in range(rounds):
        context.compile(tpq)
    warm = perf_counter() - started

    assert warm * 5 <= cold, (
        "warm compile %.6fs not >= 5x faster than cold %.6fs" % (warm, cold)
    )
