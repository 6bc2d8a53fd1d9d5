"""End-to-end benchmark of the FleXPath engine, with a per-layer trace.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper-cold --seed 1 --seconds 25 \\
        --trace 0

Workloads: ``paper-cold``, ``ingest-query``, ``sharded-skew`` (see
``workloads.py`` and ``metrics.json``).  One closed-loop client in one
process issues every op and waits for its reply; the only other threads
are the sharded scatter pool's, one per shard.  The process is pinned to
one CPU.

A run makes its inputs from ``--seed``, builds the workload's serving
state several times (``setup_s`` is the median build), computes answer
references, then runs a fixed op sequence sized to take about
``--seconds`` and checks every op's answers.  With ``--trace 0`` it
reports the end-to-end metrics; with ``--trace 1`` it alternates
untraced and traced cycles of ops, reports the per-layer metrics and
writes every span to ``.perfbench/traces/``.  The last line of standard
output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Metric names and units are read from ``BENCHMARK.json``.  Times are
calibrated to a reference host speed (see ``hostclock.py``); the lines
before the JSON, and the traced run's ``raw.*`` metrics, give the raw
figures.  ``--extra-work N`` adds a fixed loop to every ``Engine.query``
call, for ``calibration_check.py``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")

#: Figures every run prints besides the end-to-end metrics; the traced
#: run reports them as per-layer metrics.  They apply to some workloads
#: only, or read 0 when the program is right, or are uncalibrated.
REPORTED = (
    "ingest_p50_ms", "ingest_p90_ms", "disk_bytes_per_input_byte",
    "error_rate", "raw.setup_s", "raw.query_p50_ms", "raw.query_p95_ms",
    "raw.ops_per_s",
)


def metric_units():
    """name -> unit of the end-to-end and of the per-layer metrics.

    BENCHMARK.json is the one list of metric names and units.
    """
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return tuple({metric["name"]: metric["unit"] for metric in spec[kind]}
                 for kind in ("end_to_end", "per_layer"))


def percentile(values, share):
    """Linear-interpolated percentile of ``values`` (share in 0..1)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = share * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


class _Entry:
    """One timed op: raw interval, fsync and client time, verdict."""

    __slots__ = ("kind", "start", "end", "io", "gap", "cycle", "traced",
                 "ok", "seconds")

    def __init__(self, kind, start, end, io, gap, cycle, traced, ok):
        self.kind = kind
        self.start = start
        self.end = end
        self.io = io
        self.gap = gap
        self.cycle = cycle
        self.traced = traced
        self.ok = ok
        self.seconds = None  # calibrated, set after the phase


def _fsync_seconds(registry):
    histogram = registry.histogram("wal.fsync_seconds")
    return (histogram["sum"], histogram["count"]) if histogram else (0.0, 0)


def _snapshot(registry, engine):
    """Registry and cache counters the per-layer metrics take deltas of."""
    values = {
        "plan.physical.twig": registry.counter("plan.physical.twig"),
        "plan.physical.binary": registry.counter("plan.physical.binary"),
    }
    values["wal.fsync_seconds"], values["wal.fsyncs"] = _fsync_seconds(
        registry)
    values["disk.hydration_seconds"] = sum(
        (registry.histogram("disk.%s_hydration_seconds" % kind)
         or {"sum": 0.0})["sum"]
        for kind in ("postings_directory", "statistics"))
    if engine is not None:
        for tier, info in engine.cache_info().items():
            if isinstance(info, dict):
                for key in ("hits", "misses", "evictions", "invalidations"):
                    values["%s.%s" % (tier, key)] = info[key]
    return values


class _Tracing:
    """A traced run's wrappers, span recorder and counter deltas."""

    def __init__(self, registry):
        from tracing import (Patcher, Recorder, install_query_path,
                             install_setup_probes)

        self.registry = registry
        self.recorder = Recorder()
        self.deltas = {}
        self.setup_totals = None
        self._query = Patcher(self.recorder)
        self._setup = Patcher(self.recorder)
        self._install_query = install_query_path
        self._install_setup = install_setup_probes
        self._before = None

    def _start(self, engine):
        self._before = _snapshot(self.registry, engine)
        self.recorder.enabled = True

    def _stop(self, engine):
        self.recorder.enabled = False
        after = _snapshot(self.registry, engine)
        for key, value in after.items():
            self.deltas[key] = (self.deltas.get(key, 0) + value
                                - self._before.get(key, 0))

    def begin_setup(self):
        self._install_query(self._query)
        self._install_setup(self._setup)
        self._start(None)

    def end_setup(self):
        self._stop(None)
        self._setup.remove()
        self._query.remove()
        # Set-up totals feed the per-build metrics; the timed phase
        # starts from empty ones.
        self.setup_totals = self.recorder.totals
        self.recorder.totals = type(self.setup_totals)(
            self.setup_totals.default_factory)

    def begin_cycle(self, engine):
        self._install_query(self._query)
        self._start(engine)

    def end_cycle(self, engine):
        self._stop(engine)
        self._query.remove()

    def close(self):
        self.recorder.enabled = False
        self._setup.remove()
        self._query.remove()


def _set_up(workload, clock):
    """Build the state ``workload.builds`` times; keep the last build.

    Returns the state and each build's calibrated and raw seconds.
    """
    times = []
    raw = []
    state = None
    for _ in range(workload.builds):
        if state is not None:
            workload.discard(state)
            state = None
        gc.collect()
        clock.probe_burst()
        started = perf_counter()
        state = workload.build()
        finished = perf_counter()
        clock.probe_burst()
        times.append(clock.calibrate(started, finished))
        raw.append(finished - started)
    return state, times, raw


def _timed_phase(workload, state, clock, registry, tracing):
    """Run every op; returns one :class:`_Entry` per op, in order."""
    entries = []
    cycle = workload.cycle
    traced = False
    clock.probe_burst()
    previous_end = perf_counter()
    for index, op in enumerate(workload.ops(state)):
        if tracing is not None and index and index % cycle == 0:
            # Alternate untraced and traced cycles, untraced first; the
            # wrappers come off entirely for the untraced ones.
            if traced:
                tracing.end_cycle(state)
            else:
                tracing.begin_cycle(state)
            traced = not traced
        probe_started = perf_counter()
        clock.maybe_probe()
        probe_finished = perf_counter()
        writing = op.kind == "write"
        io_before = _fsync_seconds(registry)[0] if writing else 0.0
        frame = tracing.recorder.begin_op(op.label) if traced else None
        started = perf_counter()
        try:
            result = op.run()
            raised = False
        except Exception as error:  # counted, reported, and the run goes on
            print("op %d (%s) raised %r" % (index, op.kind, error),
                  file=sys.stderr)
            raised = True
        finished = perf_counter()
        if frame is not None:
            tracing.recorder.end_op(frame)
        io = _fsync_seconds(registry)[0] - io_before if writing else 0.0
        ok = not raised and op.check(result)
        gap = (probe_started - previous_end) + (started - probe_finished)
        entries.append(_Entry(op.kind, started, finished, io, gap,
                              index // cycle, traced, ok))
        previous_end = perf_counter()
    if traced:
        tracing.end_cycle(state)
    clock.probe_burst()
    return entries


def _ops_per_s(clock, entries):
    """Ops per calibrated second of op and client time, probes excluded."""
    busy = sum(entry.seconds + entry.gap / clock.factor(entry.start,
                                                        entry.end)
               for entry in entries)
    return len(entries) / busy if busy else 0.0


def _raw_ops_per_s(entries):
    """Ops per raw second of op and client time, probes excluded."""
    busy = sum(entry.end - entry.start + entry.gap for entry in entries)
    return len(entries) / busy if busy else 0.0


def _add_work(iterations):
    """Make every ``Engine.query`` call run a fixed loop first.

    A known slowdown of the program, to check that calibration keeps it
    (see ``calibration_check.py``); the loop allocates like the program
    does, so its garbage reaches the collector.
    """
    from repro.engine import Engine

    query = Engine.query

    def slowed(self, *args, **kwargs):
        table = {}
        for index in range(iterations):
            table[index & 255] = (index, [index])
        return query(self, *args, **kwargs)

    Engine.query = slowed


def _overhead(clock, entries):
    """Median of each traced cycle's ops/s over its untraced neighbours'.

    Comparing a cycle with the mean of the cycles on either side cancels
    a steady drift, such as the ingest workload's growing corpus.
    """
    cycles = {}
    for entry in entries:
        cycles.setdefault(entry.cycle, []).append(entry)
    rates = {number: _ops_per_s(clock, cycle)
             for number, cycle in cycles.items()}
    ratios = [
        rate / ((rates[number - 1] + rates[number + 1]) / 2)
        for number, rate in rates.items()
        if number % 2 and number + 1 in rates
    ]
    return statistics.median(ratios) if ratios else 0.0


def _run(args, workdir):
    from hostclock import HostClock, probe_ms
    from repro.obs.metrics import REGISTRY
    from workloads import WORKLOADS

    end_to_end, per_layer_units = metric_units()
    clock = HostClock()
    probes = [probe_ms() for _ in range(5)]
    if args.extra_work:
        _add_work(args.extra_work)
    workload = WORKLOADS[args.workload](args.seed, workdir, args.seconds)
    tracing = _Tracing(REGISTRY) if args.trace else None

    walls = [perf_counter()]
    if tracing is not None:
        tracing.begin_setup()
    state, setup_times, raw_setup_times = _set_up(workload, clock)
    if tracing is not None:
        tracing.end_setup()
    try:
        walls.append(perf_counter())
        workload.prepare(state)
        gc.collect()
        walls.append(perf_counter())
        entries = _timed_phase(workload, state, clock, REGISTRY, tracing)
        walls.append(perf_counter())
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        extra = workload.finish(state)
        walls.append(perf_counter())
    finally:
        if tracing is not None:
            tracing.close()
        workload.close(state)
    probes += [probe_ms() for _ in range(5)]

    for entry in entries:
        cpu = entry.end - entry.start - entry.io
        entry.seconds = cpu / clock.factor(entry.start, entry.end) + entry.io
    attempted = len(entries)
    failed = sum(not entry.ok for entry in entries) + extra.get("failed", 0)
    untraced = [entry for entry in entries if not entry.traced]
    reads = [entry.seconds * 1e3 for entry in untraced
             if entry.kind == "read"]
    writes = [entry.seconds * 1e3 for entry in untraced
              if entry.kind == "write"]
    raw_reads = [(entry.end - entry.start) * 1e3 for entry in untraced
                 if entry.kind == "read"]
    figures = {
        "setup_s": statistics.median(setup_times),
        "query_p50_ms": percentile(reads, 0.50),
        "query_p95_ms": percentile(reads, 0.95),
        "ops_per_s": _ops_per_s(clock, untraced),
        "peak_rss_mb": peak_rss_mb,
        "ingest_p50_ms": percentile(writes, 0.50),
        "ingest_p90_ms": percentile(writes, 0.90),
        "disk_bytes_per_input_byte": extra.get(
            "disk_bytes_per_input_byte", 0.0),
        "error_rate": failed / attempted,
        "raw.setup_s": statistics.median(raw_setup_times),
        "raw.query_p50_ms": percentile(raw_reads, 0.50),
        "raw.query_p95_ms": percentile(raw_reads, 0.95),
        "raw.ops_per_s": _raw_ops_per_s(untraced),
    }
    phase_factor = clock.factor(entries[0].start, entries[-1].end)
    print("workload %s seed %d trace %d: %d ops (%d untraced reads, %d "
          "untraced writes), %d failed" % (
              args.workload, args.seed, args.trace, attempted, len(reads),
              len(writes), failed))
    print("wall seconds: set-up %.1f, references %.1f, timed phase %.1f, "
          "final checks %.1f" % tuple(
              later - earlier for earlier, later in zip(walls, walls[1:])))
    print("host slowdown %.3f over the timed phase; probe %.3f ms"
          % (phase_factor, statistics.median(probes)))
    print("set-up builds (s): %s"
          % " ".join("%.3f" % seconds for seconds in setup_times))
    print("%d reads, %d beyond p95" % (len(reads), len(reads) // 20))
    units = dict(end_to_end, **per_layer_units)
    for name in list(end_to_end) + list(REPORTED):
        if writes or not name.startswith(("ingest", "disk")):
            print("%-28s %14.6f %s" % (name, figures[name], units[name]))

    correct = failed == 0
    if tracing is None:
        metrics = {name: {"value": figures[name], "unit": unit}
                   for name, unit in end_to_end.items()}
    else:
        from layers import per_layer, self_check

        extra_layer = {name: figures[name] for name in REPORTED}
        extra_layer["host.probe_ms"] = statistics.median(probes)
        extra_layer["trace.overhead_ratio"] = _overhead(clock, entries)
        counts = {
            "reads": sum(entry.traced and entry.kind == "read"
                         for entry in entries),
            "builds": workload.builds,
        }
        values = per_layer(per_layer_units, tracing.recorder,
                           tracing.setup_totals, counts, tracing.deltas,
                           extra_layer, getattr(workload, "SHARDS", 1),
                           phase_factor)
        missing = self_check(args.workload, values)
        if missing:
            correct = False
            print("wrapper self-check FAILED, zero: %s" % ", ".join(missing))
        else:
            print("wrapper self-check passed")
        for name, unit in per_layer_units.items():
            print("%-36s %14.6f %s" % (name, values[name], unit))
        trace_dir = os.path.join(ROOT, ".perfbench", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_path = os.path.join(
            trace_dir, "%s-seed%d.jsonl" % (args.workload, args.seed))
        tracing.recorder.write(trace_path)
        print("spans written to %s" % os.path.relpath(trace_path, ROOT))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in per_layer_units.items()}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--extra-work", type=int, default=0,
                        help="iterations of a fixed loop added to every "
                             "Engine.query call (calibration check)")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        print("error: no program source at %s" % SOURCE, file=sys.stderr)
        return 2
    # One CPU for the whole process, scatter-pool threads included: the
    # host-speed probe then times the CPU the program runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, SOURCE)
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print("error: unknown workload %r (choose from %s)"
              % (args.workload, ", ".join(WORKLOADS)), file=sys.stderr)
        return 2
    workdir = os.path.join(ROOT, ".perfbench", "%s-%d-%d" % (
        args.workload, args.seed, os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        result = _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
