"""Span recorder and per-layer ledger for the traced run.

The benchmark wraps public functions of each ``repro`` layer from here,
so the program under test carries no tracing code.  A span records its
name, start, end, parent and thread; spans stay in memory and are
written out when the run ends.  A span's *self time* is its duration
minus the part of it that its child spans cover.

Layer metrics are aggregated per traced trial.  ``unattributed_s`` is
the traced wall time minus the self time of every span on the thread
that ran the trial; spans on other threads (thread-plan workers, HTTP
handler threads) are reported in their layers and reached the trial's
thread through a wait span (``plan.drain.wait``, ``http.client``).
Every timed section is wholly covered by a ``driver.run``, ``recover``
or ``http.client`` span, so ``unattributed_s`` only measures time
outside those root spans and is near 0 by construction: work inside
``run()`` that no wrapped function covers counts as
``driver.run.self_s``, not as unattributed.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from collections import defaultdict
from concurrent.futures import Future
from typing import Any, Callable

# name, start, end, parent index (-1 = root), thread id, index
Span = list


class Tracer:
    """In-memory span recorder; records only while ``active``."""

    def __init__(self) -> None:
        self.active = False
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._ids = itertools.count()
        self._local = threading.local()
        self._restore: list[tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------
    def reset(self) -> None:
        """Drop recorded spans and counts (``active`` is left as is)."""
        self.spans = []
        self.counts = defaultdict(float)
        self._ids = itertools.count()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Span:
        stack = self._stack()
        index = next(self._ids)
        span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1,
                threading.get_ident(), index]
        stack.append(index)
        self.spans.append(span)
        return span

    def end(self, span: Span) -> None:
        span[2] = time.perf_counter()
        self._stack().pop()

    def span(self, name: str) -> "_SpanContext":
        return _SpanContext(self, name)

    # -- instrumentation -------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str | None,
        counter: Callable[..., dict[str, float]] | None = None,
    ) -> None:
        """Replace ``owner.attr`` (a class or module attribute) with a
        recording wrapper.

        ``name`` is the span name (``None`` records counts only);
        ``counter(result, *args, **kwargs)`` returns count increments.
        """
        raw = owner.__dict__[attr]
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if kind is not None else raw
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return fn(*args, **kwargs)
            span = tracer.begin(name) if name is not None else None
            try:
                result = fn(*args, **kwargs)
            finally:
                if span is not None:
                    tracer.end(span)
            if counter is not None:
                for key, amount in counter(result, *args, **kwargs).items():
                    tracer.counts[key] += amount
            return result

        setattr(owner, attr, kind(wrapper) if kind is not None else wrapper)
        self._restore.append((owner, attr, raw))

    def unwrap_all(self) -> None:
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self._tracer = tracer
        self._name = name
        self._span: Span | None = None

    def __enter__(self) -> "_SpanContext":
        if self._tracer.active:
            self._span = self._tracer.begin(self._name)
        return self

    def __exit__(self, *exc: Any) -> None:
        if self._span is not None:
            self._tracer.end(self._span)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals
    (indexed like ``spans``)."""
    position = {span[5]: i for i, span in enumerate(spans)}
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[3] >= 0 and span[3] in position:
            children[position[span[3]]].append((span[1], span[2]))
    result = []
    for i, span in enumerate(spans):
        covered, cursor = 0.0, span[1]
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, cursor), min(end, span[2])
            if end > start:
                covered += end - start
                cursor = end
        result.append((span[2] - span[1]) - covered)
    return result


def summarize(spans: list[Span], thread: int) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``self_s`` and ``total_s`` over every
    thread, and ``thread_self_s``, the self time spent on ``thread``."""
    layers: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "thread_self_s": 0.0}
    )
    for span, own in zip(spans, self_times(spans)):
        entry = layers[span[0]]
        entry["calls"] += 1
        entry["self_s"] += own
        entry["total_s"] += span[2] - span[1]
        if span[4] == thread:
            entry["thread_self_s"] += own
    return dict(layers)


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer the ledger reports."""
    from repro.analytics.counter_bank import CounterBank
    from repro.cluster import httpd, transport
    from repro.cluster.aggregator import MergeTreeAggregator
    from repro.cluster.checkpoint import BankCheckpoint
    from repro.cluster.gossip import GossipNetwork
    from repro.cluster.node import IngestNode
    from repro.cluster.pipeline import ParallelPlan, ProcessPlan, SerialPlan, WorkerFleet
    from repro.cluster.query import ClusterReader
    from repro.cluster.router import ClusterRouter
    from repro.cluster.simulation import ClusterSimulation
    from repro.cluster.storage import FileStore, MemoryStore, SegmentedLog, _FileSegmentedLog

    wrap = tracer.wrap
    wrap(ClusterSimulation, "run", "driver.run",
         lambda result, sim, events: {"driver.events": len(events)})
    wrap(ClusterRouter, "route_event", "router.route")
    wrap(IngestNode, "submit", "node.submit")
    wrap(IngestNode, "flush", "node.flush")
    wrap(CounterBank, "consume_counts", "bank.consume",
         lambda result, *a, **k: {"bank.units": result})
    wrap(SegmentedLog, "append", "wal.append")
    wrap(SegmentedLog, "storage_bytes", "wal.storage_bytes")
    wrap(_FileSegmentedLog, "storage_bytes", "wal.storage_bytes")
    wrap(SegmentedLog, "replay", None,
         lambda result, *a, **k: {"recover.replayed_events": len(result)})
    for store in (MemoryStore, FileStore):
        wrap(store, "save", "store.save",
             lambda result, store, node_id, line: {"store.bytes": len(line)})
    wrap(ClusterSimulation, "checkpoint_node", "checkpoint")
    wrap(BankCheckpoint, "encode", "codec.encode",
         lambda result, *a, **k: {"codec.bytes": len(result)})
    wrap(BankCheckpoint, "decode", "codec.decode")
    for plan in (SerialPlan, ParallelPlan, ProcessPlan):
        wrap(plan, "execute", "plan.execute")
    wrap(Future, "result", "plan.drain.wait")
    wrap(WorkerFleet, "drain", "plan.drain.wait")
    wrap(WorkerFleet, "pull_all", "plan.drain.wait")
    wrap(WorkerFleet, "deliver", "fleet.deliver")
    wrap(transport.FrameStream, "send", None,
         lambda result, *a, **k: {"transport.frames": 1})
    wrap(MergeTreeAggregator, "_fold_view", "aggregator.fold")
    wrap(GossipNetwork, "node_view", "aggregator.fold")
    wrap(GossipNetwork, "run_round", "gossip.round")
    wrap(ClusterReader, "get", "reader.get")
    wrap(httpd._Handler, "do_GET", "http.handler")
    # Only the storage layer fsyncs in a benchmark process.
    wrap(os, "fsync", "wal.fsync")
    # Frames the coordinator sends; worker replies are not counted.
    wrap(transport, "encode_frame", None,
         lambda result, *a, **k: {"transport.bytes": len(result)})


#: Per-layer metrics, as ``(name, unit, better)``, in report order.
LAYER_METRICS: tuple[tuple[str, str, str], ...] = (
    ("driver.run.self_s", "s", "lower"),
    ("driver.events", "count", "higher"),
    ("router.route.calls", "count", "lower"),
    ("router.route.self_s", "s", "lower"),
    ("node.submit.self_s", "s", "lower"),
    ("node.flush.calls", "count", "lower"),
    ("node.flush.self_s", "s", "lower"),
    ("bank.consume.self_s", "s", "lower"),
    ("bank.units", "count", "higher"),
    ("rng.bits_consumed", "bits", "lower"),
    ("wal.append.calls", "count", "lower"),
    ("wal.append.self_s", "s", "lower"),
    ("wal.fsync.calls", "count", "lower"),
    ("wal.fsync.self_s", "s", "lower"),
    ("wal.storage_bytes.self_s", "s", "lower"),
    ("store.save.self_s", "s", "lower"),
    ("store.bytes", "bytes", "lower"),
    ("checkpoint.calls", "count", "lower"),
    ("checkpoint.self_s", "s", "lower"),
    ("codec.encode.self_s", "s", "lower"),
    ("codec.decode.self_s", "s", "lower"),
    ("codec.bytes", "bytes", "lower"),
    ("plan.execute.self_s", "s", "lower"),
    ("plan.drain.wait_s", "s", "lower"),
    ("fleet.deliver.calls", "count", "lower"),
    ("fleet.deliver.self_s", "s", "lower"),
    ("transport.frames", "count", "lower"),
    ("transport.bytes", "bytes", "lower"),
    ("aggregator.fold.calls", "count", "lower"),
    ("aggregator.fold.self_s", "s", "lower"),
    ("gossip.round.calls", "count", "lower"),
    ("gossip.round.self_s", "s", "lower"),
    ("reader.get.self_s", "s", "lower"),
    ("reader.cache_hit_ratio", "ratio", "higher"),
    ("http.handler.self_s", "s", "lower"),
    ("http.wait_s", "s", "lower"),
    ("recover.self_s", "s", "lower"),
    ("recover.replayed_events", "count", "lower"),
    ("unattributed_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def trial_ledger(
    spans: list[Span], counts: dict[str, float], thread: int, wall_s: float
) -> dict[str, float]:
    """One traced trial's layer metrics (all but the ratios)."""
    layers = summarize(spans, thread)

    def layer(name: str, field: str) -> float:
        return layers.get(name, {}).get(field, 0.0)

    ledger: dict[str, float] = {}
    for metric, _, _ in LAYER_METRICS:
        base, _, field = metric.rpartition(".")
        if field in ("calls", "self_s") and base in layers:
            ledger[metric] = layers[base][field]
        elif metric in counts:
            ledger[metric] = counts[metric]
        else:
            ledger[metric] = 0.0
    # Worker threads also wait on futures (the per-node order
    # handshake); the drain wait is the coordinator's alone.
    ledger["plan.drain.wait_s"] = layer("plan.drain.wait", "thread_self_s")
    ledger["http.wait_s"] = layer("http.client", "total_s") - layer("http.handler", "total_s")
    ledger["unattributed_s"] = wall_s - sum(
        entry["thread_self_s"] for entry in layers.values()
    )
    return ledger
