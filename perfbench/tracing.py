"""Per-layer tracing from outside the program.

The traced run wraps the program's entry points — methods, a
classmethod, a lazily built property and one module function — with
timing wrappers installed before the engine is built.  Nothing under ``src/`` is
changed, and the engine's own ``trace=True`` / ``configure_tracing`` is
never used: those take the write lock and bypass the result cache, so
they would measure a different workload.

Two kinds of wrapper:

- *span* wrappers, around layer boundaries called a few times per
  request.  Each call becomes a span (name, start, end, parent span, op
  id) kept in memory and written out as JSON lines when the run ends.  A
  span's self time is its duration minus the time its children cover;
  children running on the sharded scatter pool's threads are parented to
  the client thread's open span, and their overlap is counted once.
- *leaf* wrappers, around node-at-a-time navigation, the id join kernels
  and the full-text calls, which run thousands of times per request.
  They are counted and timed per category and charged to the enclosing
  span instead of being recorded one by one.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
from collections import defaultdict
from time import perf_counter

#: Leaf categories: backend seam methods by kind, and the IR engine.
KERNEL_METHODS = (
    "structural_join_ids",
    "semi_join_ancestor_ids",
    "semi_join_descendant_ids",
    "twig_filter_ids",
    "max_value_per_ancestor",
    "max_value_per_descendant",
)
NAV_METHODS = (
    "children_with_tag",
    "child_ids_with_tag",
    "descendants_with_tag",
    "descendant_ids_with_tag",
    "parent",
    "ancestors",
)
IR_METHODS = ("satisfies", "score", "most_specific_matches",
              "count_satisfying")


class _Frame:
    __slots__ = ("span_id", "name", "parent", "start", "leaf_seconds",
                 "children", "leaves")

    def __init__(self, span_id, name, parent, start):
        self.span_id = span_id
        self.name = name
        self.parent = parent
        self.start = start
        self.leaf_seconds = 0.0
        self.children = []
        self.leaves = None


def _covered(intervals, start, end):
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    reach = start
    for low, high in sorted(intervals):
        low = max(low, reach)
        high = min(high, end)
        if high > low:
            total += high - low
            reach = high
    return total


class Recorder:
    """Spans, leaf counts and result-field sums of one traced run."""

    def __init__(self):
        self.enabled = False
        self.op_id = 0
        self.op_label = None
        self.spans = []
        # name -> [calls, inclusive seconds, self seconds]
        self.totals = defaultdict(lambda: [0, 0.0, 0.0])
        # category -> [calls, seconds]
        self.leaves = defaultdict(lambda: [0, 0.0])
        # free-form sums fed by result hooks (levels, rounds, ...)
        self.sums = defaultdict(float)
        self._ids = itertools.count(1)
        self._client = threading.get_ident()
        self._client_stack = []
        self._local = threading.local()
        # Per thread: whether a leaf call is in progress.
        self.leaf_state = threading.local()

    # -- stacks ------------------------------------------------------------

    def _stack(self):
        if threading.get_ident() == self._client:
            return self._client_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        # A scatter-pool thread: its caller is the client's open span.
        client = self._client_stack
        return client[-1] if client else None

    # -- spans -------------------------------------------------------------

    def open(self, name):
        stack = self._stack()
        frame = _Frame(next(self._ids), name, self._parent(stack),
                       perf_counter())
        stack.append(frame)
        return frame

    def close(self, frame):
        end = perf_counter()
        stack = self._stack()
        stack.pop()
        duration = end - frame.start
        own = (duration - frame.leaf_seconds
               - _covered(frame.children, frame.start, end))
        parent = frame.parent
        if parent is not None:
            parent.children.append((frame.start, end))
        total = self.totals[frame.name]
        total[0] += 1
        total[1] += duration
        total[2] += own
        self.spans.append((
            frame.span_id,
            parent.span_id if parent is not None else None,
            self.op_id,
            frame.name,
            frame.start,
            end,
            own,
            frame.leaves,
        ))
        return duration

    def leaf(self, category, seconds):
        entry = self.leaves[category]
        entry[0] += 1
        entry[1] += seconds
        stack = self._stack()
        frame = self._parent(stack)
        if frame is not None:
            frame.leaf_seconds += seconds
            if frame.leaves is None:
                frame.leaves = {}
            calls, spent = frame.leaves.get(category, (0, 0.0))
            frame.leaves[category] = (calls + 1, spent + seconds)

    # -- ops ---------------------------------------------------------------

    def begin_op(self, label):
        self.op_id += 1
        self.op_label = label
        return self.open("op")

    def end_op(self, frame):
        self.close(frame)
        self.op_label = None

    def write(self, path):
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as out:
            for (span_id, parent_id, op_id, name, start, end, own,
                 leaves) in self.spans:
                out.write(json.dumps({
                    "span_id": span_id,
                    "parent_id": parent_id,
                    "op_id": op_id,
                    "name": name,
                    "start": start,
                    "end": end,
                    "self": own,
                    "leaves": leaves,
                }) + "\n")


# -- wrappers ------------------------------------------------------------------


def _span_wrapper(recorder, name, function, on_result=None):
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        if not recorder.enabled:
            return function(*args, **kwargs)
        frame = recorder.open(name)
        try:
            result = function(*args, **kwargs)
        finally:
            duration = recorder.close(frame)
        if on_result is not None:
            on_result(recorder, result, duration)
        return result

    return wrapper


def _leaf_wrapper(recorder, category, function):
    local = recorder.leaf_state

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        # A leaf delegating to another wrapped one (a shard view to its
        # child backend) counts once, at the outermost call.
        if not recorder.enabled or getattr(local, "busy", False):
            return function(*args, **kwargs)
        local.busy = True
        started = perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            local.busy = False
            recorder.leaf(category, perf_counter() - started)

    return wrapper


def _on_topk(recorder, result, duration):
    sums = recorder.sums
    sums["topk.queries"] += 1
    sums["topk.levels"] += result.levels_evaluated
    sums["topk.restarts"] += result.restarts
    label = recorder.op_label
    if label is not None:
        sums["topk.cell.%s.calls" % label] += 1
        sums["topk.cell.%s.seconds" % label] += duration


def _on_sharded(recorder, result, duration):
    sums = recorder.sums
    sums["sharding.queries"] += 1
    sums["sharding.rounds"] += result.shard_rounds
    sums["sharding.pruned"] += result.shards_pruned


def _on_plan(recorder, result, duration):
    recorder.sums["plans.runs"] += 1
    recorder.sums["plans.intermediate"] += result.stats.max_intermediate


class Patcher:
    """Installs wrappers on classes and modules, and removes them again."""

    def __init__(self, recorder):
        self.recorder = recorder
        self._saved = []

    def _replace(self, owner, attribute, replacement):
        self._saved.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def span(self, owner, attribute, name, on_result=None):
        original = owner.__dict__[attribute]
        if isinstance(original, classmethod):
            self._replace(owner, attribute, classmethod(_span_wrapper(
                self.recorder, name, original.__func__, on_result)))
        else:
            self._replace(owner, attribute, _span_wrapper(
                self.recorder, name, original, on_result))

    def leaves(self, classes, methods, category):
        for owner in classes:
            for attribute in methods:
                if attribute in owner.__dict__:
                    self._replace(owner, attribute, _leaf_wrapper(
                        self.recorder, category, owner.__dict__[attribute]))

    def first_build(self, owner, attribute, name):
        """Span the first access of a lazily built property only."""
        original = owner.__dict__[attribute]
        recorder = self.recorder
        key = "%s_materialized" % attribute

        def fget(instance):
            if not recorder.enabled or instance.describe().get(key, True):
                return original.fget(instance)
            frame = recorder.open(name)
            try:
                return original.fget(instance)
            finally:
                recorder.close(frame)

        self._replace(owner, attribute, property(fget, doc=original.__doc__))

    def remove(self):
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)


def install_query_path(patcher):
    """Wrap every layer a request passes through."""
    from repro.backend.base import StorageBackend
    from repro.backend.disk import DiskBackend
    from repro.backend.memory import InMemoryBackend
    from repro.backend.sharded import ShardedBackend, ShardView
    from repro.collection import Corpus
    from repro.engine import Engine
    from repro.ir.engine import IREngine
    from repro.plans.executor import PlanExecutor
    from repro.session import Session, SessionPool
    from repro.sharding import ShardedQueryContext, ShardedStrategy
    from repro.topk.base import QueryContext
    from repro.topk.dpo import DPO
    from repro.topk.ir_first import IRFirstDPO
    from repro.topk.naive import NaiveRewriting
    from repro.topk.sso import SSO
    from repro.xmltree import parser

    patcher.span(Engine, "query", "engine.query")
    patcher.span(Session, "query", "session.query")
    patcher.span(SessionPool, "checkout", "session.checkout")
    patcher.span(QueryContext, "compile", "compiled.compile")
    patcher.span(ShardedQueryContext, "compile", "compiled.compile")
    # Hybrid inherits SSO.top_k.
    for strategy in (DPO, SSO, NaiveRewriting, IRFirstDPO):
        patcher.span(strategy, "top_k", "topk.top_k", _on_topk)
    patcher.span(ShardedStrategy, "top_k", "sharding.top_k", _on_sharded)
    # One shard's share of a scatter round, on a scatter-pool thread.
    patcher.span(ShardedStrategy, "_run_shard", "sharding.shard")
    patcher.span(PlanExecutor, "run", "plans.execute", _on_plan)
    patcher.span(DiskBackend, "open", "disk.open")
    patcher.span(DiskBackend, "add_document", "disk.add_document")
    patcher.span(DiskBackend, "compact", "disk.compact")
    patcher.span(Corpus, "add_document", "collection.splice")
    patcher.span(parser, "parse", "xmltree.parse")
    backends = (StorageBackend, InMemoryBackend, DiskBackend, ShardView,
                ShardedBackend)
    patcher.leaves(backends, KERNEL_METHODS, "backend.kernel")
    patcher.leaves(backends, NAV_METHODS, "backend.nav")
    patcher.leaves((IREngine,), IR_METHODS, "ir")


def install_setup_probes(patcher):
    """Wrap the lazy statistics builds that set-up forces."""
    from repro.backend.disk import DiskBackend
    from repro.backend.memory import InMemoryBackend

    for owner in (InMemoryBackend, DiskBackend):
        patcher.first_build(owner, "statistics", "backend.stats_build")
