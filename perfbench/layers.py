"""Per-layer metrics of a traced run, and the wrapper self-check.

Times are calibrated milliseconds (see :mod:`hostclock`).  Read-path
times and counts are per read op, write-path ones per write, compaction
per compaction, and set-up ones per set-up build; ratios are shares of
their stated base.  A metric that does not apply to the workload is 0.
"""

from __future__ import annotations

from collections import defaultdict

from workloads import ALGORITHMS, PaperCold

CELLS = ["topk.top_k_ms.%s.%s" % (algorithm, query)
         for query in PaperCold.QUERIES for algorithm in ALGORITHMS]

_EVERY_WORKLOAD = [
    "engine.query_ms", "engine.self_ms", "session.checkout_ms",
    "compiled.compile_ms", "plans.execute_ms", "plans.runs_per_query",
    "backend.nav_calls", "backend.nav_ms", "ir.calls", "ir.ms",
    "trace.unaccounted_share", "trace.overhead_ratio", "host.probe_ms",
]

#: Metrics each workload exists to exercise: the self-check requires
#: every one of them to be non-zero, so a wrapper that misses its call
#: path fails the run instead of reading 0.
EXERCISED = {
    "paper-cold": _EVERY_WORKLOAD + CELLS + [
        "topk.top_k_ms", "topk.levels_per_query", "plans.twig_share",
        "plans.max_intermediate", "backend.kernel_calls",
        "backend.kernel_ms", "backend.stats_build_ms",
    ],
    "ingest-query": _EVERY_WORKLOAD + [
        "topk.top_k_ms", "topk.levels_per_query", "cache.result_hit_ratio",
        "cache.result_invalidations", "compiled.plan_hit_ratio",
        "plans.max_intermediate", "plans.eval_hit_ratio",
        "backend.stats_build_ms", "disk.open_ms", "disk.hydration_ms",
        "disk.add_document_ms", "disk.wal_fsync_ms", "collection.splice_ms",
        "xmltree.parse_ms", "disk.compact_ms", "ingest_p50_ms",
        "ingest_p90_ms", "disk_bytes_per_input_byte",
        "cache.result_evictions",
    ],
    "sharded-skew": _EVERY_WORKLOAD + [
        "sharding.top_k_ms", "sharding.shard_ms", "sharding.merge_ms",
        "sharding.rounds_per_query", "sharding.pruned_share",
        "plans.max_intermediate",
    ],
}


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def per_layer(names, recorder, setup, counts, deltas, extra, shards,
              factor):
    """The values of the per-layer metrics ``names`` for one traced run.

    ``setup`` is the recorder's totals over the set-up builds; ``counts``
    holds the number of traced ``reads`` and of set-up ``builds``;
    ``deltas`` the registry and cache counters accrued in traced cycles
    and set-up; ``extra`` the figures measured outside the recorder
    (untraced end-to-end figures, overhead, probe); ``shards`` the shard
    count; ``factor`` the host slowdown of the timed phase (raw ms /
    factor = calibrated ms).
    """
    totals, leaves, sums = recorder.totals, recorder.leaves, recorder.sums
    deltas = defaultdict(float, deltas)
    reads = counts["reads"]

    def per(value, base, scale=1.0):
        return _ratio(value * scale, base)

    def ms_per_read(name, column=1):
        return per(totals[name][column], reads, 1e3 / factor)

    def ms_per_call(table, name):
        return per(table[name][1], table[name][0], 1e3 / factor)

    def hit_ratio(tier):
        hits, misses = deltas[tier + ".hits"], deltas[tier + ".misses"]
        return _ratio(hits, hits + misses)

    queries = sums["topk.queries"] + sums["sharding.queries"]
    values = {
        "engine.query_ms": ms_per_read("engine.query"),
        "engine.self_ms": per(totals["engine.query"][2]
                              + totals["session.query"][2], reads,
                              1e3 / factor),
        "session.checkout_ms": ms_per_read("session.checkout"),
        "cache.result_hit_ratio": hit_ratio("result_cache"),
        "cache.result_evictions": per(deltas["result_cache.evictions"],
                                      reads),
        "cache.result_invalidations": per(
            deltas["result_cache.invalidations"], reads),
        "compiled.compile_ms": ms_per_read("compiled.compile", 2),
        "compiled.plan_hit_ratio": hit_ratio("plan_cache"),
        "topk.top_k_ms": ms_per_read("topk.top_k"),
        "topk.levels_per_query": per(sums["topk.levels"],
                                     sums["topk.queries"]),
        "topk.restarts_per_query": per(sums["topk.restarts"],
                                       sums["topk.queries"]),
        "plans.execute_ms": ms_per_read("plans.execute", 2),
        "plans.runs_per_query": per(sums["plans.runs"], queries),
        "plans.twig_share": _ratio(
            deltas["plan.physical.twig"],
            deltas["plan.physical.twig"] + deltas["plan.physical.binary"]),
        "plans.max_intermediate": per(sums["plans.intermediate"],
                                      sums["plans.runs"]),
        "plans.eval_hit_ratio": hit_ratio("eval_cache"),
        "backend.kernel_calls": per(leaves["backend.kernel"][0], reads),
        "backend.kernel_ms": per(leaves["backend.kernel"][1], reads,
                                 1e3 / factor),
        "backend.nav_calls": per(leaves["backend.nav"][0], reads),
        "backend.nav_ms": per(leaves["backend.nav"][1], reads, 1e3 / factor),
        "backend.stats_build_ms": per(setup["backend.stats_build"][1],
                                      counts["builds"], 1e3 / factor),
        "ir.calls": per(leaves["ir"][0], reads),
        "ir.ms": per(leaves["ir"][1], reads, 1e3 / factor),
        "disk.open_ms": ms_per_call(setup, "disk.open"),
        "disk.hydration_ms": per(deltas["disk.hydration_seconds"],
                                 counts["builds"], 1e3 / factor),
        "disk.add_document_ms": ms_per_call(totals, "disk.add_document"),
        "disk.wal_fsync_ms": per(deltas["wal.fsync_seconds"],
                                 deltas["wal.fsyncs"], 1e3),
        "collection.splice_ms": ms_per_call(totals, "collection.splice"),
        "xmltree.parse_ms": ms_per_call(totals, "xmltree.parse"),
        "disk.compact_ms": ms_per_call(totals, "disk.compact"),
        "sharding.top_k_ms": ms_per_read("sharding.top_k"),
        "sharding.shard_ms": ms_per_read("sharding.shard"),
        "sharding.merge_ms": ms_per_read("sharding.top_k", 2),
        "sharding.rounds_per_query": per(sums["sharding.rounds"],
                                         sums["sharding.queries"]),
        "sharding.pruned_share": per(sums["sharding.pruned"],
                                     sums["sharding.queries"] * shards),
        "trace.unaccounted_share": _ratio(totals["op"][2], totals["op"][1]),
    }
    for name in CELLS:
        label = name[len("topk.top_k_ms."):]
        values[name] = per(sums["topk.cell.%s.seconds" % label],
                           sums["topk.cell.%s.calls" % label], 1e3 / factor)
    values.update(extra)
    return {name: values[name] for name in names}


def self_check(workload, values):
    """Names of exercised metrics that read 0 (empty when all is well)."""
    return [name for name in EXERCISED[workload] if not values[name]]
