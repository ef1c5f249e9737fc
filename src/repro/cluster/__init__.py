"""The distributed counting cluster — §1's deployment, end to end.

The paper's motivating system keeps one approximate counter per key across
many machines.  This package composes the library's primitives into that
deployment:

* :class:`~repro.cluster.node.IngestNode` — a
  :class:`~repro.analytics.counter_bank.CounterBank` behind a coalescing
  write buffer (batched flushes ride the ``add`` fast-forward), with
  drain/absorb APIs for key migration;
* :class:`~repro.cluster.router.ClusterRouter` — deterministic key
  routing with hot-key splitting over a pluggable
  :class:`~repro.cluster.router.RoutingStrategy` (salted stable hash or
  consistent hash ring) and topology epochs for elastic membership;
* :mod:`~repro.cluster.rebalance` — incremental key migration between
  nodes as codec-serialized batches, exact by Remark 2.4;
* :mod:`~repro.cluster.retention` — tumbling / sliding window policies
  that bound a long-running cluster's state bits;
* :class:`~repro.cluster.aggregator.MergeTreeAggregator` — merge-tree
  aggregation of per-node banks into a :class:`~repro.cluster.aggregator.
  GlobalView`, exact by Remark 2.4 (scratch merges for periodic queries,
  destructive collapse at window end, :func:`~repro.cluster.aggregator.
  merge_views` to assemble retention horizons);
* :mod:`~repro.cluster.gossip` — the decentralized read path:
  per-node epoch-stamped partial-view digests exchanged in seeded
  push-pull rounds (``ClusterConfig.aggregation="gossip"``); a
  converged node's local view equals the central merge-tree answer
  bit for bit on ``exact`` templates;
* :mod:`~repro.cluster.membership` — self-healing membership on top of
  gossip (``ClusterConfig.membership=True``): per-node failure
  detection from digest round stamps, suspicion votes piggybacked on
  the exchanges, phase-based quorum confirmation, and automatic
  recover-or-rebalance-away healing of driver-killed nodes
  (``NodeFailure(heal=False)``) — deterministic and lossless;
* :class:`~repro.cluster.checkpoint.BankCheckpoint` — whole-bank
  snapshot/restore built on :mod:`repro.core.codec` and stamped with the
  capturing topology, so a crashed node recovers deterministically;
* :mod:`~repro.cluster.storage` — the durability layer: one
  checkpoint store, :class:`~repro.cluster.storage.MemoryStore`, whose
  records :class:`~repro.cluster.storage.FileStore` persists as atomic,
  checksummed files, plus the write-ahead
  :class:`~repro.cluster.storage.SegmentedLog`, which bounds
  retained-log memory by forcing a fence checkpoint whenever a segment
  fills;
* :class:`~repro.cluster.simulation.ClusterSimulation` — the event-loop
  driver with failure injection, durable-log replay, scale events, and
  retention, plus throughput / state-bits metrics;
  :func:`~repro.cluster.simulation.recover_cluster` rebuilds a live
  simulation from a ``FileStore`` directory after process death;
* :mod:`~repro.cluster.pipeline` — pluggable execution plans for that
  loop, selected by name through a registry (``ClusterConfig.plan``):
  the serial reference path, worker-sharded thread delivery
  (``ClusterConfig.ingest_workers``), or one OS process per node
  (:class:`~repro.cluster.pipeline.ProcessPlan`) — all bit-identical
  to serial on exact templates;
* :mod:`~repro.cluster.transport` — the length-prefixed, checksummed,
  versioned frame protocol between the process-plan coordinator and
  its :mod:`~repro.cluster.worker` subprocesses;
  :mod:`~repro.cluster.serve` manages the long-running daemon shape of
  the same workers (the ``cluster serve`` CLI lifecycle);
* :mod:`~repro.cluster.query` — the one blessed read surface:
  :class:`~repro.cluster.query.ClusterReader` answers ``get`` /
  ``top_k`` / ``view`` / ``subscribe`` at a chosen consistency
  (``"replica"`` = pure gossip-digest read with an honest staleness
  stamp, ``"consistent"`` = the paid central fold) behind a
  stamp-invalidated read cache, returning the typed entities of
  :mod:`~repro.cluster.entities`; :mod:`~repro.cluster.httpd` serves
  the same API over HTTP/SSE (``--serve-http`` and the
  ``cluster serve query`` daemon — see ``docs/serving.md``);
* :mod:`repro.obs` (a sibling package) — the telemetry substrate every
  cluster layer publishes into: a metrics registry, a structured
  stream-position-stamped trace log, and delivery-path stage timers.
  Telemetry is provably inert — runs with it off, on, or file-sinked
  are bit-identical (see ``docs/observability.md``).

Invariants the tier-1 tests pin down: merging loses nothing (an ``exact``
template cluster reproduces ground truth bit-for-bit through routing,
rebalancing, and retention; any template matches a single-node run
statistically), and checkpoint recovery is deterministic (same config +
same stream ⇒ identical estimates, crashes and resizes included).
"""

from repro.cluster.aggregator import (
    GlobalView,
    MergeTreeAggregator,
    merge_views,
    tree_merge,
    view_fingerprint,
)
from repro.cluster.checkpoint import BankCheckpoint
from repro.cluster.entities import (
    READ_CONSISTENCY,
    KeyCount,
    StalenessInfo,
    TopK,
    ViewSnapshot,
    dump_strict_json,
)
from repro.cluster.gossip import (
    AGGREGATION_MODES,
    DigestEntry,
    GossipNetwork,
    NodeDigest,
)
from repro.cluster.membership import (
    ALIVE,
    CONFIRMED_DEAD,
    MEMBERSHIP_HEAL_MODES,
    SUSPECT,
    FailureDetector,
    MembershipView,
)
from repro.cluster.node import CounterTemplate, IngestNode, default_template
from repro.cluster.query import ClusterReader, Subscription
from repro.cluster.pipeline import (
    PLAN_NAMES,
    PLAN_REGISTRY,
    ExecutionPlan,
    ParallelPlan,
    ProcessPlan,
    SerialPlan,
    WorkerFleet,
    make_plan,
)
from repro.cluster.rebalance import (
    KeyMove,
    MigrationBatch,
    RebalancePlan,
    RebalanceReport,
    execute_rebalance,
    plan_rebalance,
)
from repro.cluster.retention import (
    RetentionPolicy,
    SlidingRetention,
    TumblingRetention,
)
from repro.cluster.router import (
    ClusterRouter,
    HashRingStrategy,
    ModuloHashStrategy,
    RoutingStrategy,
    StableHashRouter,
    make_strategy,
)
from repro.cluster.simulation import (
    ClusterConfig,
    ClusterSimulation,
    NodeFailure,
    NodeStats,
    ScaleEvent,
    SimulationResult,
    node_seed,
    recover_cluster,
)
from repro.cluster.storage import (
    STORAGE_BACKENDS,
    FileStore,
    MemoryStore,
    SegmentedLog,
    make_store,
)

__all__ = [
    "AGGREGATION_MODES",
    "ALIVE",
    "BankCheckpoint",
    "CONFIRMED_DEAD",
    "ClusterConfig",
    "ClusterReader",
    "ClusterRouter",
    "ClusterSimulation",
    "CounterTemplate",
    "DigestEntry",
    "ExecutionPlan",
    "FailureDetector",
    "FileStore",
    "GlobalView",
    "GossipNetwork",
    "HashRingStrategy",
    "IngestNode",
    "KeyCount",
    "KeyMove",
    "MEMBERSHIP_HEAL_MODES",
    "MembershipView",
    "MemoryStore",
    "MergeTreeAggregator",
    "MigrationBatch",
    "ModuloHashStrategy",
    "NodeDigest",
    "NodeFailure",
    "NodeStats",
    "PLAN_NAMES",
    "PLAN_REGISTRY",
    "ParallelPlan",
    "ProcessPlan",
    "READ_CONSISTENCY",
    "RebalancePlan",
    "RebalanceReport",
    "RetentionPolicy",
    "RoutingStrategy",
    "STORAGE_BACKENDS",
    "SUSPECT",
    "ScaleEvent",
    "SegmentedLog",
    "SerialPlan",
    "SimulationResult",
    "SlidingRetention",
    "StableHashRouter",
    "StalenessInfo",
    "Subscription",
    "TopK",
    "TumblingRetention",
    "ViewSnapshot",
    "WorkerFleet",
    "default_template",
    "dump_strict_json",
    "execute_rebalance",
    "make_plan",
    "make_store",
    "make_strategy",
    "merge_views",
    "node_seed",
    "plan_rebalance",
    "recover_cluster",
    "tree_merge",
    "view_fingerprint",
]
