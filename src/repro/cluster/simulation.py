"""Deterministic end-to-end driver for the counting cluster.

The simulation wires the cluster together the way a real deployment would:
a :class:`~repro.cluster.router.ClusterRouter` spreads a
:class:`~repro.stream.workload.KeyedEvent` stream over N
:class:`~repro.cluster.node.IngestNode` machines, nodes coalesce and flush
batches into their banks, periodic :class:`~repro.cluster.checkpoint.
BankCheckpoint` snapshots bound the blast radius of a crash, and a
:class:`~repro.cluster.aggregator.MergeTreeAggregator` produces the global
merged view at the end.

Failure injection and recovery
------------------------------
``ClusterConfig.failures`` schedules crashes at exact stream positions.  A
crash destroys the node's volatile state (bank and write buffer); recovery
restores the last checkpoint (on a fresh incarnation-derived seed, so the
replica does not share coin flips with its dead predecessor) and replays
the *durable log* — the events delivered to the node since that checkpoint,
which the durability layer retains exactly as a real ingest tier would keep
unacknowledged messages in its queue.  Recovery is therefore lossless in
ground truth and fully deterministic: the same config and stream produce
bit-identical final estimates, crashes included.

Durability
----------
All checkpoint and durable-log bookkeeping flows through a pluggable
:class:`~repro.cluster.storage.CheckpointStore`
(``ClusterConfig.storage``): ``"memory"`` keeps everything in process
(the historical behavior), ``"file"`` persists checkpoints, the
write-ahead log, and a topology manifest under ``storage_dir`` so a
simulation can be rebuilt from disk with :func:`recover_cluster`.
``wal_segment_events`` bounds the retained log: the
:class:`~repro.cluster.storage.SegmentedLog` rolls fixed-size segments
and the simulation takes a *forced* fence checkpoint whenever a segment
fills, so replay cost — and retained-log memory — is proportional to the
segment size even with ``checkpoint_every=None``.  The backend never
changes what a run computes: memory- and file-backed runs of the same
config are bit-identical.

Elastic scaling
---------------
``ClusterConfig.scale_events`` schedules topology changes at exact stream
positions: a :class:`ScaleEvent` adds a node (``"add"``) or drains and
removes one (``"remove"``).  Each change advances the router's topology
epoch, computes the key-migration diff
(:func:`~repro.cluster.rebalance.plan_rebalance`), and ships the affected
counters to their new owners as codec-serialized batches
(:func:`~repro.cluster.rebalance.execute_rebalance`) — a pure sequence of
merges, so Remark 2.4 keeps the cluster exact through every resize.
After a migration every live node takes a *fence checkpoint* (and its
durable log truncates), so a later crash can never resurrect
pre-migration state: recovery stays "last checkpoint + log replay" with
no special cases.

Windowed retention
------------------
``ClusterConfig.retention`` bounds long-running state: at each policy
boundary the live banks collapse into an archived window view and every
node restarts empty on a fresh window-derived seed (see
:mod:`repro.cluster.retention`).  The final reported view merges the
retained archive with the live window, so the horizon answer is still
distribution-exact over everything the policy kept.

Parallel ingest
---------------
Delivery is pluggable (:mod:`repro.cluster.pipeline`): one stream
driver routes every event in stream order on the coordinator thread and
hands per-node batches of ``delivery_batch`` events to the backend the
execution plan picks.  The default (``ingest_workers=1``) applies them
inline; with more workers a thread pool applies them — WAL append plus
buffer submit — one thread per node at a time.  Checkpoints,
migrations, retention collapses, and crashes fence through a drain
handshake, so recovery semantics are untouched and a parallel run is
bit-identical to the serial run at the same seed (a tier-1 invariant,
``tests/cluster/test_pipeline.py``).

Gossip aggregation
------------------
``ClusterConfig.aggregation="gossip"`` adds the decentralized read path
(:mod:`repro.cluster.gossip`): every node keeps an epoch-stamped
partial-view digest, and every ``gossip_every`` delivered events the
simulation runs a push-pull round — each node refreshes its own digest
entry and exchanges digests with ``gossip_fanout`` seeded-random peers.
Rounds are deterministic event-stream entries that fence through the
execution plan's drain handshake (like retention boundaries), so a
parallel gossip run is bit-identical to the serial one.  At end of
stream the digests converge (anti-entropy rounds, counted in the
result); a converged node's :meth:`ClusterSimulation.node_view` equals
the central merge tree's answer bit for bit on ``exact`` templates.

Self-healing membership
-----------------------
``ClusterConfig.membership=True`` (requires gossip aggregation) makes
the cluster survive crashes the driver does *not* heal
(``NodeFailure(heal=False)``): every gossip round also runs the failure
detector (:mod:`repro.cluster.membership`) — staleness assessment over
the digest round stamps, suspicion votes piggybacked on the digest
exchanges, phase-based quorum confirmation — and ends with a heal pass
that recovers (or rebalances away) every origin the round confirmed
dead.  Detection and healing happen only at gossip rounds, which both
execution plans fence through the drain handshake, so a self-healed run
stays bit-identical serial vs parallel, and on ``exact`` templates its
final ``global_view()`` equals the driver-healed reference run's at the
same seed (both are lossless, so both equal ground truth).

Everything except wall-clock throughput metrics is derived from the
config seed, which is what the determinism tests pin down.  At one
stream position the order is fixed: retention boundary, then gossip
round (detection + self-healing included), then scale events, then
crashes, then the event itself.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import asdict, dataclass, field, fields
from typing import (
    Any, Callable, Iterable, get_args, get_origin, get_type_hints
)

from repro.cluster.aggregator import (
    GlobalView,
    MergeTreeAggregator,
    merge_views,
)
from repro.cluster.checkpoint import BankCheckpoint
from repro.cluster.gossip import AGGREGATION_MODES, GossipNetwork
from repro.cluster.membership import (
    MEMBERSHIP_HEAL_MODES,
    FailureDetector,
)
from repro.cluster.node import CounterTemplate, IngestNode, default_template
from repro.cluster.pipeline import (
    PLAN_NAMES,
    DeliveryBackend,
    StreamDriver,
    make_plan,
)
from repro.cluster.rebalance import (
    MigrationBatch,
    absorb_batch,
    execute_rebalance,
    plan_rebalance,
)
from repro.cluster.retention import RetentionPolicy, TumblingRetention
from repro.cluster.router import (
    ROUTING_STRATEGIES,
    ClusterRouter,
    make_strategy,
)
from repro.cluster.storage import (
    STORAGE_BACKENDS,
    CheckpointStore,
    FileStore,
    make_store,
)
from repro.errors import ParameterError, StateError
from repro.experiments.records import TextTable
from repro.obs import Telemetry
from repro.rng.splitmix import derive_seed
from repro.stream.workload import KeyedEvent

__all__ = [
    "NodeFailure",
    "ScaleEvent",
    "ClusterConfig",
    "NodeStats",
    "SimulationResult",
    "ClusterSimulation",
    "node_seed",
    "recover_cluster",
]

_NODE_SEED_KEY = 0x6E6F6465  # "node"
_ROUTER_SEED_KEY = 0x726F7574  # "rout"


def node_seed(
    config_seed: int, node_id: int, incarnation: int = 0
) -> int:
    """The bank seed of ``node_id`` at ``incarnation``.

    The one derivation every deployment mode shares: in-process nodes
    (:meth:`ClusterSimulation._fresh_node`), crash recovery
    (incarnation bumps), and ``cluster serve`` worker daemons
    (:mod:`repro.cluster.serve`) all seed their banks here, which is
    what lets state captured in one mode be adopted in another.
    """
    return derive_seed(config_seed, _NODE_SEED_KEY, node_id, incarnation)

#: Wall-clock floor: a sub-nanosecond elapsed time (possible when a tiny
#: run lands inside one ``perf_counter`` tick) would otherwise make
#: ``events_per_sec`` infinite — which is both meaningless and invalid
#: strict JSON when benchmarks serialize it.
_MIN_ELAPSED_S = 1e-9


@dataclass(frozen=True, slots=True)
class NodeFailure:
    """Crash ``node_id`` just before stream position ``at_event``.

    With ``heal=True`` (the historical behavior) the driver recovers
    the node immediately — crash and recovery are one stream entry.
    ``heal=False`` is the fault-injection mode for self-healing
    membership (:mod:`repro.cluster.membership`): the driver only
    *kills* the node, and the cluster itself must notice the silence,
    confirm the death by quorum, and run recovery — it requires
    ``ClusterConfig.membership=True``.
    """

    at_event: int
    node_id: int
    heal: bool = True

    def __post_init__(self) -> None:
        if self.at_event < 0:
            raise ParameterError(
                f"at_event must be non-negative, got {self.at_event}"
            )
        if self.node_id < 0:
            raise ParameterError(
                f"node_id must be non-negative, got {self.node_id}"
            )


@dataclass(frozen=True, slots=True)
class ScaleEvent:
    """One topology change, just before stream position ``at_event``.

    ``action="add"`` brings up a new ingest node (``node_id`` picks its
    id; ``None`` auto-assigns ``max(live ids) + 1``).  ``action="remove"``
    drains ``node_id`` (required) into the surviving nodes and retires
    it.  Both trigger an incremental key migration — see
    :mod:`repro.cluster.rebalance`.

    >>> ScaleEvent(at_event=1000, action="add")
    ScaleEvent(at_event=1000, action='add', node_id=None)
    >>> ScaleEvent(at_event=0, action="remove")
    Traceback (most recent call last):
        ...
    repro.errors.ParameterError: remove needs an explicit node_id
    """

    at_event: int
    action: str
    node_id: int | None = None

    def __post_init__(self) -> None:
        if self.at_event < 0:
            raise ParameterError(
                f"at_event must be non-negative, got {self.at_event}"
            )
        if self.action not in ("add", "remove"):
            raise ParameterError(
                f"action must be 'add' or 'remove', got {self.action!r}"
            )
        if self.action == "remove" and self.node_id is None:
            raise ParameterError("remove needs an explicit node_id")
        if self.node_id is not None and self.node_id < 0:
            raise ParameterError(
                f"node_id must be non-negative, got {self.node_id}"
            )


@dataclass(frozen=True)
class ClusterConfig:
    """Shape of one simulated deployment.

    ``routing`` picks the placement strategy (``"hash"`` = salted stable
    hash with per-epoch salt regeneration, ``"ring"`` = consistent hash
    ring with ``ring_points`` virtual nodes — minimal key movement per
    resize).  ``scale_events`` and ``retention`` drive elasticity and
    windowed retention; both default off, reproducing the frozen
    topology of earlier versions bit for bit.

    ``storage`` picks the durability backend (``"memory"`` in-process,
    ``"file"`` persisted under ``storage_dir`` — see
    :mod:`repro.cluster.storage`); ``wal_segment_events`` bounds the
    retained durable log per node (a filled segment forces a fence
    checkpoint), and ``traffic_table_limit`` bounds the router's hot-key
    auto-detection table.

    ``plan`` names the execution plan explicitly (see
    :mod:`repro.cluster.pipeline`): ``"serial"``, ``"parallel"``
    (thread pool), or ``"process"`` (one OS worker process per node
    behind the checksummed wire protocol).  The default ``"auto"``
    keeps the historical rule — serial at ``ingest_workers=1``,
    parallel above — where ``ingest_workers`` shards delivery over a
    thread pool.  Every plan delivers in per-node batches of
    ``delivery_batch`` events.  Results are bit-identical across plans
    on exact templates.
    ``wal_fsync_every`` turns on group-commit fsync for WAL appends;
    like ``storage_dir`` and ``storage_overwrite`` it needs
    ``storage="file"``.

    ``aggregation`` picks the read path: ``"tree"`` (the central merge
    tree, historical behavior) or ``"gossip"`` (every node additionally
    keeps an epoch-stamped partial-view digest and exchanges it with
    ``gossip_fanout`` seeded-random peers every ``gossip_every``
    delivered events — see :mod:`repro.cluster.gossip`).
    ``gossip_every=None`` with gossip aggregation schedules no
    in-stream rounds; the run still converges the digests after the
    stream so every node's local read equals the central answer.

    ``membership=True`` (requires gossip aggregation) turns on
    self-healing membership (:mod:`repro.cluster.membership`): every
    gossip round also runs failure detection — an origin whose digest
    entry goes more than ``suspect_after`` rounds without refreshing is
    suspected, suspicion votes piggyback on the digest exchanges, and
    ``membership_quorum`` votes (default: every live node) confirm the
    death, at which point the cluster heals it per ``membership_heal``
    (``auto``/``recover``/``rebalance``).  This is what makes
    ``NodeFailure(heal=False)`` kills survivable without driver help.

    ``__post_init__`` is the one place knob-pairing rules live: a knob
    the rest of the config would silently ignore raises
    :class:`~repro.errors.ParameterError`.
    """

    n_nodes: int = 4
    template: CounterTemplate = field(default_factory=default_template)
    seed: int = 0
    buffer_limit: int = 512
    checkpoint_every: int | None = 50_000
    hot_keys: tuple[str, ...] = ()
    hot_key_threshold: int | None = None
    failures: tuple[NodeFailure, ...] = ()
    track_truth: bool = True
    fanout: int = 2
    routing: str = "hash"
    ring_points: int = 64
    scale_events: tuple[ScaleEvent, ...] = ()
    retention: RetentionPolicy | None = None
    storage: str = "memory"
    storage_dir: str | None = None
    storage_overwrite: bool = False
    wal_segment_events: int | None = None
    traffic_table_limit: int | None = 4096
    ingest_workers: int = 1
    delivery_batch: int = 64
    wal_fsync_every: int | None = None
    plan: str = "auto"
    aggregation: str = "tree"
    gossip_fanout: int = 1
    gossip_every: int | None = None
    membership: bool = False
    suspect_after: int = 2
    membership_quorum: int | None = None
    membership_heal: str = "auto"

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ParameterError(
                f"n_nodes must be >= 1, got {self.n_nodes}"
            )
        if self.checkpoint_every is not None and self.checkpoint_every < 1:
            raise ParameterError(
                "checkpoint_every must be >= 1 or None, "
                f"got {self.checkpoint_every}"
            )
        if self.routing not in ROUTING_STRATEGIES:
            known = ", ".join(sorted(ROUTING_STRATEGIES))
            raise ParameterError(
                f"routing must be one of {known}, got {self.routing!r}"
            )
        if self.ring_points < 1:
            raise ParameterError(
                f"ring_points must be >= 1, got {self.ring_points}"
            )
        if self.storage not in STORAGE_BACKENDS:
            known = ", ".join(STORAGE_BACKENDS)
            raise ParameterError(
                f"storage must be one of {known}, got {self.storage!r}"
            )
        if self.storage == "file" and self.storage_dir is None:
            raise ParameterError(
                "storage='file' needs a storage_dir"
            )
        if self.storage != "file":
            # Same loudness rule as the gossip knobs: the memory store
            # has no directory and no files, so these would be no-ops.
            if self.storage_dir is not None:
                raise ParameterError("storage_dir requires storage='file'")
            if self.storage_overwrite:
                raise ParameterError(
                    "storage_overwrite requires storage='file'"
                )
            if self.wal_fsync_every is not None:
                raise ParameterError(
                    "wal_fsync_every requires storage='file'"
                )
        if (
            self.wal_segment_events is not None
            and self.wal_segment_events < 1
        ):
            raise ParameterError(
                "wal_segment_events must be >= 1 or None, "
                f"got {self.wal_segment_events}"
            )
        if (
            self.traffic_table_limit is not None
            and self.traffic_table_limit < 1
        ):
            raise ParameterError(
                "traffic_table_limit must be >= 1 or None, "
                f"got {self.traffic_table_limit}"
            )
        if self.ingest_workers < 1:
            raise ParameterError(
                f"ingest_workers must be >= 1, got {self.ingest_workers}"
            )
        if self.delivery_batch < 1:
            raise ParameterError(
                f"delivery_batch must be >= 1, got {self.delivery_batch}"
            )
        if self.wal_fsync_every is not None and self.wal_fsync_every < 1:
            raise ParameterError(
                "wal_fsync_every must be >= 1 or None, "
                f"got {self.wal_fsync_every}"
            )
        if self.plan != "auto" and self.plan not in PLAN_NAMES:
            known = ", ".join(("auto", *PLAN_NAMES))
            raise ParameterError(
                f"plan must be one of {known}, got {self.plan!r}"
            )
        if self.plan == "serial" and self.ingest_workers > 1:
            raise ParameterError(
                "plan='serial' is the single-threaded loop; "
                f"ingest_workers={self.ingest_workers} would be "
                "silently ignored (use plan='parallel' or 'auto')"
            )
        if self.plan == "process":
            if self.ingest_workers > 1:
                raise ParameterError(
                    "plan='process' runs one OS process per node; "
                    "ingest_workers does not apply (leave it at 1)"
                )
            if self.aggregation == "gossip":
                raise ParameterError(
                    "plan='process' does not support "
                    "aggregation='gossip' yet: gossip rounds exchange "
                    "digests between in-process node objects"
                )
        if self.aggregation not in AGGREGATION_MODES:
            known = ", ".join(AGGREGATION_MODES)
            raise ParameterError(
                f"aggregation must be one of {known}, "
                f"got {self.aggregation!r}"
            )
        if self.gossip_fanout < 1:
            raise ParameterError(
                f"gossip_fanout must be >= 1, got {self.gossip_fanout}"
            )
        if self.gossip_every is not None and self.gossip_every < 1:
            raise ParameterError(
                "gossip_every must be >= 1 or None, "
                f"got {self.gossip_every}"
            )
        if self.aggregation != "gossip":
            # Gossip knobs on a tree cluster would be silently ignored;
            # refuse them so a forgotten aggregation switch is loud.
            if self.gossip_every is not None:
                raise ParameterError(
                    "gossip_every requires aggregation='gossip'"
                )
            if self.gossip_fanout != 1:
                raise ParameterError(
                    "gossip_fanout requires aggregation='gossip'"
                )
        if self.suspect_after < 1:
            raise ParameterError(
                f"suspect_after must be >= 1, got {self.suspect_after}"
            )
        if self.membership_quorum is not None and self.membership_quorum < 1:
            raise ParameterError(
                "membership_quorum must be >= 1 or None, "
                f"got {self.membership_quorum}"
            )
        if self.membership_heal not in MEMBERSHIP_HEAL_MODES:
            known = ", ".join(MEMBERSHIP_HEAL_MODES)
            raise ParameterError(
                f"membership_heal must be one of {known}, "
                f"got {self.membership_heal!r}"
            )
        if self.membership and self.aggregation != "gossip":
            # Detection feeds on digest round stamps; without gossip
            # there is nothing to detect from.
            raise ParameterError(
                "membership=True requires aggregation='gossip'"
            )
        if not self.membership:
            # Same loudness rule as the gossip knobs: membership tuning
            # on a cluster that runs no detection is a silent no-op.
            if self.suspect_after != 2:
                raise ParameterError(
                    "suspect_after requires membership=True"
                )
            if self.membership_quorum is not None:
                raise ParameterError(
                    "membership_quorum requires membership=True"
                )
            if self.membership_heal != "auto":
                raise ParameterError(
                    "membership_heal requires membership=True"
                )
            for failure in self.failures:
                if not failure.heal:
                    raise ParameterError(
                        f"failure at event {failure.at_event} has "
                        "heal=False, which requires membership=True "
                        "(nothing else would ever recover the node)"
                    )
        self._validate_schedule()

    def _validate_schedule(self) -> None:
        """Fail fast on impossible failure/scale targets.

        Replays the scheduled topology changes the way the simulation
        will (scale events before failures at the same position, listed
        order within a position, monotone auto ids), so a typo'd node id
        raises :class:`~repro.errors.ParameterError` at construction
        instead of aborting mid-run.
        """
        # kind 0 = scale, 1 = failure: matches the event-loop ordering.
        schedule = sorted(
            [
                (scale.at_event, 0, index, scale)
                for index, scale in enumerate(self.scale_events)
            ]
            + [
                (failure.at_event, 1, index, failure)
                for index, failure in enumerate(self.failures)
            ]
        )
        live = set(range(self.n_nodes))
        # Nodes killed with heal=False stay dead until membership heals
        # them — a gossip-round-timed action the replay cannot place —
        # so the checks below are conservative: a killed node is treated
        # as dead for the rest of the schedule.
        dead: set[int] = set()
        next_auto = self.n_nodes
        for at_event, kind, _, action in schedule:
            if kind == 1:
                if action.node_id not in live:
                    raise ParameterError(
                        f"failure at event {at_event} targets node "
                        f"{action.node_id}, which is not live there "
                        f"(live: {sorted(live)})"
                    )
                if action.node_id in dead:
                    raise ParameterError(
                        f"failure at event {at_event} targets node "
                        f"{action.node_id}, which an earlier heal=False "
                        "kill may have left dead there"
                    )
                if not action.heal:
                    dead.add(action.node_id)
                    if len(live) - len(dead) < 1:
                        raise ParameterError(
                            f"kill at event {at_event} would leave no "
                            "live survivor to detect it"
                        )
            elif action.action == "add":
                node_id = (
                    action.node_id if action.node_id is not None
                    else next_auto
                )
                if node_id in live:
                    raise ParameterError(
                        f"scale event at event {at_event} adds node "
                        f"{node_id}, which is already live"
                    )
                live.add(node_id)
                next_auto = max(next_auto, node_id + 1)
                dead.clear()
            else:
                if action.node_id not in live:
                    raise ParameterError(
                        f"scale event at event {at_event} removes node "
                        f"{action.node_id}, which is not live there "
                        f"(live: {sorted(live)})"
                    )
                if len(live) == 1:
                    raise ParameterError(
                        f"scale event at event {at_event} would remove "
                        "the last node"
                    )
                live.remove(action.node_id)
                # A scale event force-heals every dead node first (a
                # topology change is a full-cluster coordination point),
                # so from here the replay may treat them as live again.
                dead.clear()

    @classmethod
    def from_args(cls, args: Any) -> "ClusterConfig":
        """Parse a ``cluster`` CLI namespace into a config (only the
        CLI builds configs this way).

        Refuses (:class:`~repro.errors.ParameterError`) only what no
        config field holds: a malformed ``NODE@EVENT`` spec, an action
        at or past the end of the ``--events`` stream, ``--retain``
        without ``--window-every``, and telemetry outputs under
        ``--no-telemetry``.  Every knob-pairing rule is the dataclass's
        own, re-raised as ``invalid cluster configuration: ...``.
        """
        kills, kill_deads, shrinks = (
            [_parse_node_at_event(flag, spec) for spec in specs]
            for flag, specs in (
                ("--kill", args.kill),
                ("--kill-dead", args.kill_dead),
                ("--shrink", args.shrink),
            )
        )
        for at_event in [
            at_event for at_event, _ in kills + kill_deads + shrinks
        ] + args.grow:
            if at_event >= args.events:
                raise ParameterError(
                    f"--kill/--kill-dead/--grow/--shrink at event "
                    f"{at_event} is past the end of the stream "
                    f"({args.events} events); it would never fire"
                )
        if args.retain is not None and args.window_every is None:
            raise ParameterError("--retain requires --window-every")
        for flag, path in (
            ("--metrics-out", args.metrics_out),
            ("--trace-out", args.trace_out),
        ):
            if args.no_telemetry and path is not None:
                raise ParameterError(
                    f"{flag} needs the telemetry layers; drop --no-telemetry"
                )
        gossip_every = args.gossip_every
        if args.aggregation == "gossip" and gossip_every is None:
            gossip_every = max(args.events // 8, 1)
        try:
            failures = [
                NodeFailure(at_event, node_id) for at_event, node_id in kills
            ] + [
                NodeFailure(at_event, node_id, heal=False)
                for at_event, node_id in kill_deads
            ]
            scale_events = [
                ScaleEvent(at_event, "add") for at_event in args.grow
            ] + [
                ScaleEvent(at_event, "remove", node_id)
                for at_event, node_id in shrinks
            ]
            return cls(
                n_nodes=args.nodes,
                template=default_template(args.algorithm),
                seed=args.seed,
                buffer_limit=args.buffer,
                checkpoint_every=args.checkpoint_every or None,
                hot_key_threshold=args.hot_threshold,
                failures=tuple(sorted(failures, key=lambda f: f.at_event)),
                routing=args.routing,
                ring_points=args.ring_points,
                scale_events=tuple(
                    sorted(scale_events, key=lambda s: s.at_event)
                ),
                retention=(
                    TumblingRetention(args.window_every, args.retain)
                    if args.window_every is not None
                    else None
                ),
                storage=args.storage,
                storage_dir=args.storage_dir,
                storage_overwrite=args.storage_overwrite,
                wal_segment_events=args.wal_segment,
                ingest_workers=args.workers,
                delivery_batch=args.batch,
                wal_fsync_every=args.wal_fsync,
                plan=args.plan,
                aggregation=args.aggregation,
                gossip_fanout=args.gossip_fanout,
                gossip_every=gossip_every,
                membership=args.membership,
                suspect_after=args.suspect_after,
                membership_quorum=args.membership_quorum,
                membership_heal=args.membership_heal,
            )
        except ParameterError as exc:
            raise ParameterError(
                f"invalid cluster configuration: {exc}"
            ) from exc


def _parse_node_at_event(flag: str, spec: str) -> tuple[int, int]:
    """Parse a ``NODE@EVENT`` flag value into ``(event, node)``, the
    field order of :class:`NodeFailure`."""
    try:
        node_part, event_part = spec.split("@", 1)
        return int(event_part), int(node_part)
    except ValueError:
        raise ParameterError(
            f"{flag} expects NODE@EVENT (e.g. 2@100000), got {spec!r}"
        ) from None


@dataclass(frozen=True, slots=True)
class NodeStats:
    """Per-node accounting at the end of a run.

    ``retired`` marks nodes that were scaled out mid-run; their lifetime
    counts stay in the result so every delivered event remains accounted
    for exactly once.
    """

    node_id: int
    events: int
    keys: int
    flushes: int
    checkpoints: int
    recoveries: int
    state_bits: int
    retired: bool = False


@dataclass(frozen=True)
class SimulationResult:
    """Everything a run produced, ready for tables and JSON.

    ``elapsed_s`` and ``events_per_sec`` are wall-clock measurements and
    the only non-deterministic fields; everything else is a pure function
    of the config and the event stream.  ``n_nodes`` is the *final* live
    node count (equal to the configured count unless scale events ran).
    """

    n_nodes: int
    total_events: int
    n_keys: int
    hot_keys: int
    merge_rounds: int
    total_state_bits: int
    node_stats: tuple[NodeStats, ...]
    top: tuple[tuple[str, float, int | None], ...]
    mean_relative_error: float | None
    rms_relative_error: float | None
    max_relative_error: float | None
    elapsed_s: float
    events_per_sec: float
    epoch: int = 0
    scale_events_applied: int = 0
    keys_migrated: int = 0
    migration_batches: int = 0
    migration_bytes: int = 0
    windows_collapsed: int = 0
    windows_retained: int = 0
    storage_bytes: int = 0
    gossip_rounds: int = 0
    gossip_convergence_rounds: int = 0
    gossip_max_staleness: int | None = None
    membership_kills: int = 0
    membership_suspicions: int = 0
    membership_confirmations: int = 0
    membership_heals: int = 0
    membership_detection_rounds: int = 0

    @property
    def recoveries(self) -> int:
        """Total node recoveries across the run."""
        return sum(s.recoveries for s in self.node_stats)

    @property
    def checkpoints(self) -> int:
        """Total checkpoints taken across the run."""
        return sum(s.checkpoints for s in self.node_stats)

    def table(self) -> str:
        """Render the per-node table, top keys, and global summary."""
        nodes = TextTable(
            [
                "node",
                "events",
                "keys",
                "flushes",
                "ckpts",
                "recoveries",
                "state bits",
            ]
        )
        for s in self.node_stats:
            nodes.add_row(
                f"node-{s.node_id}" + (" (retired)" if s.retired else ""),
                f"{s.events:,}",
                f"{s.keys:,}",
                f"{s.flushes:,}",
                str(s.checkpoints),
                str(s.recoveries),
                f"{s.state_bits:,}",
            )
        lines = [nodes.render()]
        if self.top:
            top = TextTable(["top key", "estimate", "truth", "rel. error"])
            for key, estimate, truth in self.top:
                if truth is None or truth == 0:
                    top.add_row(key, f"{estimate:,.0f}", "-", "-")
                else:
                    top.add_row(
                        key,
                        f"{estimate:,.0f}",
                        f"{truth:,}",
                        f"{100 * abs(estimate - truth) / truth:.3f}%",
                    )
            lines.append("")
            lines.append(top.render())
        lines.append("")
        lines.append(
            f"{self.n_nodes} nodes, {self.total_events:,} events over "
            f"{self.n_keys:,} keys ({self.hot_keys} split hot), "
            f"merge depth {self.merge_rounds}"
        )
        lines.append(
            f"throughput {self.events_per_sec:,.0f} events/s "
            f"({self.elapsed_s:.2f} s); merged view "
            f"{self.total_state_bits:,} state bits"
        )
        if self.scale_events_applied:
            lines.append(
                f"{self.scale_events_applied} scale events "
                f"(topology epoch {self.epoch}): {self.keys_migrated:,} "
                f"keys migrated in {self.migration_batches} batches "
                f"({self.migration_bytes:,} wire bytes)"
            )
        if self.windows_collapsed:
            lines.append(
                f"retention: {self.windows_collapsed} windows collapsed, "
                f"{self.windows_retained} retained in the horizon view"
            )
        if self.gossip_rounds:
            staleness = (
                f"{self.gossip_max_staleness:,}"
                if self.gossip_max_staleness is not None
                else "untracked"
            )
            lines.append(
                f"gossip: {self.gossip_rounds} push-pull rounds "
                f"({self.gossip_convergence_rounds} to converge after "
                f"the stream); max staleness {staleness} events"
            )
        if self.membership_heals or self.membership_kills:
            lines.append(
                f"membership: {self.membership_kills} kills detected via "
                f"{self.membership_suspicions} suspicions and "
                f"{self.membership_confirmations} quorum confirmations, "
                f"{self.membership_heals} self-heals (worst detection "
                f"{self.membership_detection_rounds} gossip rounds)"
            )
        if self.rms_relative_error is not None:
            lines.append(
                f"global error vs truth: mean "
                f"{100 * self.mean_relative_error:.3f}%  rms "
                f"{100 * self.rms_relative_error:.3f}%  max "
                f"{100 * self.max_relative_error:.3f}%"
            )
        if self.recoveries:
            lines.append(
                f"{self.recoveries} node recoveries from "
                f"{self.checkpoints} checkpoints (durable-log replay)"
            )
        if self.storage_bytes:
            lines.append(
                f"durability: {self.storage_bytes:,} bytes retained "
                "(checkpoints + write-ahead log)"
            )
        return "\n".join(lines)


class ClusterSimulation:
    """Event-loop driver over a configured cluster.

    One instance drives one run; :meth:`run` may be called once per
    event stream.  All cluster components are reachable (``nodes``,
    ``router``, ``aggregator``, ``store``) for white-box assertions, and
    the elastic operations (:meth:`scale_up`, :meth:`scale_down`,
    :meth:`crash_node`, :meth:`collapse_window`) are public so tests
    and notebooks can drive topology changes by hand.

    ``store`` injects a prebuilt :class:`~repro.cluster.storage.
    CheckpointStore` (defaults to one built from the config);
    ``resume=True`` rebuilds the simulation from the store's persisted
    state instead of starting fresh — use :func:`recover_cluster` rather
    than passing it directly.

    ``telemetry`` injects a :class:`~repro.obs.Telemetry` facade
    (defaults to a fully-enabled one with a null trace sink).  All
    run statistics — per-node checkpoint/recovery counts, migration
    totals, retention counts — live in its
    :class:`~repro.obs.MetricsRegistry`; the registry's deterministic
    counters are always on and round-trip through the manifest, so
    they survive :func:`recover_cluster` monotonically.  Only the
    wall-clock layers (stage timers, duration histograms, trace
    records) honor ``Telemetry.enabled``, and none of it ever changes
    what a run computes (the inertness contract, pinned in
    ``tests/cluster/test_properties.py``).
    """

    def __init__(
        self,
        config: ClusterConfig,
        store: CheckpointStore | None = None,
        resume: bool = False,
        telemetry: Telemetry | None = None,
    ) -> None:
        self._config = config
        self._telemetry = (
            telemetry if telemetry is not None else Telemetry()
        )
        self._metrics = self._telemetry.registry
        #: events delivered so far — the stream position stamped into
        #: trace records (coordinator thread only).
        self._stream_position = 0
        self._store = (
            store
            if store is not None
            else make_store(
                config.storage,
                wal_segment_events=config.wal_segment_events,
                directory=config.storage_dir,
                overwrite=config.storage_overwrite,
                wal_fsync_every=config.wal_fsync_every,
            )
        )
        self._store.attach_telemetry(self._telemetry)
        self._archived: deque[GlobalView] = deque(
            maxlen=(
                config.retention.retained_windows
                if config.retention is not None
                else None
            )
        )
        #: currently-dead node ids; populated by :meth:`kill_node`, reset
        #: by :meth:`_fresh_membership`.  Initialized before the resume
        #: branch because ``_restore`` checkpoints nodes (which consults
        #: this set) before it rebuilds the membership layer.
        self._dead: set[int] = set()
        #: Optional migration-batch observer: called with each encoded
        #: :class:`~repro.cluster.rebalance.MigrationBatch` line after
        #: it is journaled and before the in-process absorb.  The
        #: process plan uses it to ship the move to the worker fleet in
        #: lockstep with the coordinator's mirrors.
        self._migration_observer: Callable[[str], None] | None = None
        if resume:
            self._restore(self._store.load())
            return
        self._store.initialize()
        self._router = self._fresh_router(range(config.n_nodes))
        self._nodes: dict[int, IngestNode] = {
            node_id: self._fresh_node(node_id, incarnation=0)
            for node_id in range(config.n_nodes)
        }
        self._aggregator = MergeTreeAggregator(
            self._ordered_nodes(), fanout=config.fanout
        )
        self._since_checkpoint: dict[int, int] = {}
        #: node id -> incarnation counter; never forgets retired ids, so
        #: a re-added id can never replay a predecessor's RNG streams.
        self._incarnation: dict[int, int] = {}
        self._stats_base: dict[int, tuple[int, int]] = {}
        for node_id in self._nodes:
            self._init_bookkeeping(node_id)
            self._incarnation[node_id] = 0
        #: next auto-assigned node id; monotone over ids ever used, so
        #: scale-up after scale-down does not resurrect a retired id.
        self._next_auto_id = config.n_nodes
        self._retired: list[NodeStats] = []
        self._window = 0
        self._mid_migration = False
        self._gossip = self._fresh_gossip()
        if self._gossip is not None:
            for node_id in sorted(self._nodes):
                self._gossip.add_node(node_id)
        self._gossip_convergence_rounds = 0
        self._gossip_max_staleness: int | None = None
        self._membership = self._fresh_membership()
        self._sync_manifest()

    def _fresh_gossip(self) -> GossipNetwork | None:
        """The gossip layer the config asks for (``None`` for tree)."""
        config = self._config
        if config.aggregation != "gossip":
            return None
        return GossipNetwork(
            seed=config.seed,
            fanout=config.gossip_fanout,
            registry=self._metrics,
        )

    def _fresh_membership(self) -> FailureDetector | None:
        """Attach a failure detector when the config asks for one.

        Also (re-)initializes the kill bookkeeping: the set of
        currently-dead node ids and the per-node kill-round stamps the
        detection-latency accounting reads.
        """
        self._dead: set[int] = set()
        self._kill_rounds: dict[int, int] = {}
        self._membership_detection_rounds: dict[int, int] = {}
        config = self._config
        if not config.membership:
            return None
        assert self._gossip is not None  # enforced by ClusterConfig
        detector = FailureDetector(
            suspect_after=config.suspect_after,
            quorum=config.membership_quorum,
            registry=self._metrics,
            telemetry=self._telemetry,
        )
        self._gossip.attach_detector(detector)
        return detector

    def _fresh_router(self, node_ids: Iterable[int]) -> ClusterRouter:
        config = self._config
        strategy_params: dict[str, Any] = (
            {"points_per_node": config.ring_points}
            if config.routing == "ring"
            else {}
        )
        return ClusterRouter(
            node_ids,
            strategy=make_strategy(config.routing, **strategy_params),
            hot_keys=config.hot_keys,
            hot_key_threshold=config.hot_key_threshold,
            salt=derive_seed(config.seed, _ROUTER_SEED_KEY),
            traffic_table_limit=config.traffic_table_limit,
            registry=self._metrics,
        )

    def _fresh_node(self, node_id: int, incarnation: int) -> IngestNode:
        config = self._config
        return IngestNode(
            node_id,
            config.template,
            seed=node_seed(config.seed, node_id, incarnation),
            buffer_limit=config.buffer_limit,
            track_truth=config.track_truth,
        )

    def _reincarnate(self, node_id: int) -> IngestNode:
        """A fresh node at ``node_id``'s next incarnation (bumped here),
        so it never shares coin flips with a predecessor."""
        incarnation = self._incarnation.get(node_id, -1) + 1
        self._incarnation[node_id] = incarnation
        return self._fresh_node(node_id, incarnation)

    def _init_bookkeeping(self, node_id: int) -> None:
        # Incarnation is deliberately not reset here: it outlives a
        # node's tenure so reused ids get fresh seeds.  Checkpoint and
        # recovery counts live in the metrics registry, monotone over
        # the node id's whole history; the baseline recorded here is
        # what keeps ``NodeStats`` per-tenure when an id is explicitly
        # reused after retirement.
        self._store.register(node_id)
        self._since_checkpoint[node_id] = 0
        self._stats_base[node_id] = (
            self._metrics.counter("node_checkpoints", node=node_id),
            self._metrics.counter("node_recoveries", node=node_id),
        )

    def _tenure_counts(self, node_id: int) -> tuple[int, int]:
        """This tenure's (checkpoints, recoveries) for one live node."""
        base_checkpoints, base_recoveries = self._stats_base.get(
            node_id, (0, 0)
        )
        return (
            self._metrics.counter("node_checkpoints", node=node_id)
            - base_checkpoints,
            self._metrics.counter("node_recoveries", node=node_id)
            - base_recoveries,
        )

    def _ordered_nodes(self) -> list[IngestNode]:
        return [self._nodes[node_id] for node_id in sorted(self._nodes)]

    def _sync_membership(self) -> None:
        """Point the aggregator at the current membership and epoch."""
        self._aggregator.set_nodes(
            self._ordered_nodes(), epoch=self._router.epoch
        )

    # ------------------------------------------------------------------
    # durability manifest
    # ------------------------------------------------------------------
    def _manifest_payload(self) -> dict[str, Any]:
        """Everything :func:`recover_cluster` needs, JSON-safe.

        The schedule fields (``failures``, ``scale_events``,
        ``retention``) are deliberately absent: they describe one run's
        stream positions, which a recovered simulation has already
        consumed.  Archived retention windows are likewise volatile —
        recovery resumes the *live* window only.
        """
        return {
            "config": _config_echo(self._config),
            "topology": self._topology_stamp(),
            "incarnations": {
                str(node_id): incarnation
                for node_id, incarnation in self._incarnation.items()
            },
            # Per-tenure counts for the live nodes (the historical
            # manifest schema); the registry's lifetime counters ride
            # along under "metrics" below.
            "checkpoints": {
                str(node_id): self._tenure_counts(node_id)[0]
                for node_id in self._nodes
            },
            "recoveries": {
                str(node_id): self._tenure_counts(node_id)[1]
                for node_id in self._nodes
            },
            "stats_base": {
                str(node_id): list(base)
                for node_id, base in self._stats_base.items()
            },
            "next_auto_id": self._next_auto_id,
            "window": self._window,
            "mid_migration": self._mid_migration,
            # The full monotone counter state: every registry counter as
            # [name, labels, value], re-imported by recovery so lifetime
            # telemetry survives process death instead of resetting.
            "metrics": {"counters": self._metrics.export_counters()},
            "retired": [asdict(stats) for stats in self._retired],
        }

    def _sync_manifest(self) -> None:
        """Persist the manifest so on-disk state is always recoverable."""
        self._store.write_manifest(self._manifest_payload())

    def _restore(self, manifest: dict[str, Any]) -> None:
        """Rebuild the simulation from a loaded store manifest.

        Every node goes through the standard recovery path — bumped
        incarnation, checkpoint restore, durable-log replay — exactly as
        if the whole cluster had crashed at once (it did: the process
        died).  See :func:`recover_cluster`.
        """
        journal = self._store.pending_migrations()
        if manifest.get("mid_migration"):
            if not journal:
                # Pre-journal store (or a hand-built manifest): between
                # drain and fence a migrated counter exists in no
                # checkpoint and no log, so without the journaled batch
                # lines the state is genuinely unrecoverable.
                raise StateError(
                    "cluster died mid-migration and the store holds no "
                    "migration journal: migrated counters may be "
                    "absent from every checkpoint, so the persisted "
                    "state cannot be recovered losslessly"
                )
        elif journal:
            # The migration completed (its fences and the cleared
            # manifest flag are durable) but the writer died before
            # dropping the journal: stale, ignore it.
            self._store.clear_migration_journal()
            journal = []
        self._mid_migration = False
        try:
            topology = manifest["topology"]
            node_ids = sorted(int(node) for node in topology["nodes"])
            epoch = int(topology["epoch"])
            self._incarnation = {
                int(node): int(count)
                for node, count in manifest["incarnations"].items()
            }
            tenure_checkpoints = {
                int(node): int(count)
                for node, count in manifest["checkpoints"].items()
            }
            tenure_recoveries = {
                int(node): int(count)
                for node, count in manifest["recoveries"].items()
            }
            # Post-telemetry manifests carry the per-tenure baselines
            # and the full lifetime counter state; older ones default to
            # zero baselines (lifetime == tenure without id reuse).
            self._stats_base = {
                int(node): (int(pair[0]), int(pair[1]))
                for node, pair in manifest.get("stats_base", {}).items()
            }
            metrics_blob = manifest.get("metrics")
            if metrics_blob is not None:
                self._metrics.import_counters(metrics_blob["counters"])
            else:
                for node, count in tenure_checkpoints.items():
                    self._metrics.load_counter(
                        "node_checkpoints", count, node=node
                    )
                for node, count in tenure_recoveries.items():
                    self._metrics.load_counter(
                        "node_recoveries", count, node=node
                    )
                # Pre-telemetry manifests kept the cluster-wide
                # lifetime counters in a block of their own.
                counters = manifest["counters"]
                for name, key in (
                    ("windows_collapsed_total", "windows_collapsed"),
                    ("scale_events_total", "scale_events_applied"),
                    ("keys_migrated_total", "keys_migrated"),
                    ("migration_batches_total", "migration_batches"),
                    ("migration_bytes_total", "migration_bytes"),
                ):
                    self._metrics.load_counter(name, int(counters[key]))
            self._next_auto_id = int(manifest["next_auto_id"])
            self._window = int(manifest["window"])
            self._retired = [
                NodeStats(**entry) for entry in manifest.get("retired", ())
            ]
        except (KeyError, TypeError, ValueError, ParameterError) as exc:
            raise StateError(f"malformed cluster manifest: {exc}") from exc
        for node_id in node_ids:
            self._stats_base.setdefault(node_id, (0, 0))
        self._router = self._fresh_router(node_ids)
        self._router.restore_topology(node_ids, epoch=epoch)
        self._nodes = {}
        self._since_checkpoint = {}
        self._aggregator = None  # type: ignore[assignment]
        for node_id in node_ids:
            self._recover_node(node_id)
        self._aggregator = MergeTreeAggregator(
            self._ordered_nodes(),
            fanout=self._config.fanout,
            epoch=self._router.epoch,
        )
        if journal:
            self._replay_migration_journal(journal)
        for node_id in node_ids:
            if self.fence_due(node_id):
                self.checkpoint_node(node_id)
        # Digests are volatile by design: rebuild every node's own entry
        # from its recovered bank (= checkpoint + WAL replay); what the
        # dead process had learned about peers is re-learned by the
        # anti-entropy rounds that follow.
        self._gossip = self._fresh_gossip()
        if self._gossip is not None:
            for node_id in node_ids:
                self._gossip.add_node(node_id)
                self._gossip.refresh(
                    self._nodes[node_id],
                    epoch=self._router.epoch,
                    window=self._window,
                )
        self._gossip_convergence_rounds = 0
        self._gossip_max_staleness = None
        # Membership views are volatile; process recovery just recovered
        # *every* node (checkpoint + WAL replay), so the rebuilt cluster
        # starts with no dead nodes and a blank detector.
        self._membership = self._fresh_membership()
        self._sync_manifest()

    def _replay_migration_journal(self, lines: list[str]) -> None:
        """Finish a migration whose writer died before its fences.

        Every node is already recovered (checkpoint + WAL replay), so
        each holds its *pre-migration* state unless its fence
        checkpoint landed before the death.  Per journaled batch:

        * the **source** (if live and its checkpoint predates the
          batch's topology epoch) drains the batch's keys again — the
          drained copies are discarded, the journal line is the
          authoritative moved state;
        * the **target** (same epoch guard) absorbs the journaled
          batch on the standard ``(seed, epoch, key)``-derived streams,
          bit-identical to the absorb the dead process was executing.

        The epoch guard is what makes replay idempotent: a fence
        checkpoint stamps the post-change topology epoch, so a node
        whose fence landed already has the move inside its checkpoint
        and is skipped.  A torn *trailing* line (the writer died inside
        the journal append) is dropped — its drain-side state was
        rebuilt by the source's WAL replay, so nothing is lost; a torn
        line anywhere else means the journal itself is corrupt and
        recovery refuses.
        """
        batches: list[MigrationBatch] = []
        for index, line in enumerate(lines):
            try:
                batches.append(MigrationBatch.decode(line))
            except StateError:
                if index == len(lines) - 1:
                    self._telemetry.trace(
                        "migration_journal_torn", dropped_line=index
                    )
                    break
                raise
        epoch_cache: dict[int, int] = {}

        def checkpoint_epoch(node_id: int) -> int:
            if node_id not in epoch_cache:
                line = self._store.latest(node_id)
                if line is None:
                    epoch_cache[node_id] = -1
                else:
                    topology = BankCheckpoint.decode(line).topology or {}
                    epoch_cache[node_id] = int(topology.get("epoch", -1))
            return epoch_cache[node_id]

        touched: set[int] = set()
        replayed_keys = 0
        for batch in batches:
            if (
                batch.source in self._nodes
                and checkpoint_epoch(batch.source) < batch.epoch
            ):
                self._nodes[batch.source].drain(batch.snapshots.keys())
                touched.add(batch.source)
            if (
                batch.target in self._nodes
                and checkpoint_epoch(batch.target) < batch.epoch
            ):
                replayed_keys += absorb_batch(
                    batch, self._nodes[batch.target], seed=self._config.seed
                )
                touched.add(batch.target)
        for node_id in sorted(touched & set(self._router.nodes)):
            self.checkpoint_node(node_id)
        self._telemetry.trace(
            "migration_replay",
            batches=len(batches),
            keys=replayed_keys,
            nodes=sorted(touched),
        )
        self._store.clear_migration_journal()

    # ------------------------------------------------------------------
    # component access
    # ------------------------------------------------------------------
    @property
    def config(self) -> ClusterConfig:
        """The deployment shape this simulation drives."""
        return self._config

    @property
    def nodes(self) -> list[IngestNode]:
        """The live ingest nodes, ordered by node id."""
        return self._ordered_nodes()

    @property
    def router(self) -> ClusterRouter:
        """The key router."""
        return self._router

    @property
    def aggregator(self) -> MergeTreeAggregator:
        """The merge-tree aggregator over the live nodes."""
        return self._aggregator

    @property
    def store(self) -> CheckpointStore:
        """The durability backend (checkpoints + write-ahead log)."""
        return self._store

    @property
    def gossip(self) -> GossipNetwork | None:
        """The gossip layer (``None`` unless ``aggregation='gossip'``)."""
        return self._gossip

    @property
    def membership(self) -> FailureDetector | None:
        """The failure detector (``None`` unless ``membership=True``)."""
        return self._membership

    @property
    def dead_nodes(self) -> tuple[int, ...]:
        """Nodes killed with ``heal=False`` and not yet self-healed."""
        return tuple(sorted(self._dead))

    def is_node_dead(self, node_id: int) -> bool:
        """Whether the node is currently dead (awaiting self-healing)."""
        return node_id in self._dead

    @property
    def telemetry(self) -> Telemetry:
        """The telemetry facade (registry + trace sink + stage timers)."""
        return self._telemetry

    # ------------------------------------------------------------------
    # telemetry exporters
    # ------------------------------------------------------------------
    def _refresh_derived_metrics(self) -> None:
        """Publish node/router/storage state the registry can't see.

        Counters derived from node lifetime stats use ``load_counter``
        (a monotone floor), so they can never regress even across crash
        recovery; everything else here is a gauge and point-in-time by
        definition.  Reading is side-effect-free on cluster state, so
        exporting a snapshot is as inert as the rest of telemetry.
        """
        metrics = self._metrics
        for node in self._ordered_nodes():
            node_id = node.node_id
            metrics.load_counter(
                "events_delivered_total", node.events_ingested,
                node=node_id,
            )
            metrics.load_counter(
                "events_coalesced_total", node.events_coalesced,
                node=node_id,
            )
            metrics.set_gauge(
                "node_pending_events", node.pending, node=node_id
            )
            metrics.set_gauge("node_keys", len(node.bank), node=node_id)
            metrics.set_gauge(
                "node_state_bits", node.state_bits(), node=node_id
            )
        for stats in self._retired:
            metrics.load_counter(
                "events_delivered_total", stats.events,
                node=stats.node_id,
            )
        metrics.set_gauge("live_nodes", len(self._nodes))
        metrics.set_gauge("topology_epoch", self._router.epoch)
        metrics.set_gauge("retention_window", self._window)
        metrics.set_gauge(
            "traffic_table_size", self._router.traffic_table_size
        )
        metrics.set_gauge("hot_key_count", len(self._router.hot_keys))
        # The router's hot-key traffic table, top-k by observed count —
        # republished wholesale because membership shifts as keys are
        # promoted or evicted.
        metrics.clear_gauges("traffic_top")
        for key, count in self._router.traffic_top(10):
            metrics.set_gauge("traffic_top", count, key=key)
        metrics.set_gauge("storage_bytes", self._store.storage_bytes())
        if self._gossip is not None:
            metrics.set_gauge(
                "gossip_fanout", self._config.gossip_fanout
            )
            if self._gossip_max_staleness is not None:
                metrics.set_gauge(
                    "gossip_max_staleness", self._gossip_max_staleness
                )

    def metrics_snapshot(self) -> dict[str, Any]:
        """The strict-JSON metrics document for this cluster, now.

        Refreshes the derived gauges, then exports the registry's three
        series families plus the merged per-worker ``stages`` timings.
        Safe whenever no run is mid-flight (between runs, after
        :meth:`run` returns, or on a freshly recovered cluster).
        """
        self._refresh_derived_metrics()
        return self._telemetry.snapshot()

    def render_prometheus(self) -> str:
        """Prometheus text rendering of :meth:`metrics_snapshot`."""
        self._refresh_derived_metrics()
        return self._telemetry.render_prometheus()

    # ------------------------------------------------------------------
    # gossip aggregation
    # ------------------------------------------------------------------
    def gossip_round(self) -> int:
        """Run one scheduled push-pull round over the live nodes.

        Every node refreshes its own digest entry (flushing its bank —
        a flush only applies events already in the durable log, so
        recovery semantics are untouched), then exchanges digests with
        its seeded-random peers.  Returns the lifetime round index.

        Dead nodes (killed with ``heal=False``) are excluded: their
        entries neither refresh nor exchange, which is exactly the
        silence the attached failure detector measures.  When membership
        is on, the round ends with the heal pass — any origin the round
        confirmed dead is recovered (or rebalanced away) right here, at
        a drained fence position, so serial and parallel runs heal at
        identical states.
        """
        if self._gossip is None:
            raise StateError(
                "gossip_round() needs aggregation='gossip' "
                f"(this cluster runs {self._config.aggregation!r})"
            )
        participants = {
            node_id: node
            for node_id, node in self._nodes.items()
            if node_id not in self._dead
        }
        round_index = self._gossip.run_round(
            participants, epoch=self._router.epoch, window=self._window
        )
        self._telemetry.trace(
            "gossip_round",
            position=self._stream_position,
            round=round_index,
        )
        if self._membership is not None:
            self._apply_membership()
        return round_index

    def node_view(self, node_id: int) -> GlobalView:
        """One node's decentralized read: its gossip digest, merged.

        The view covers whatever the node's digest has learned so far —
        stale by at most the traffic since each origin's last refresh,
        and after :meth:`~repro.cluster.gossip.GossipNetwork.converge`
        (which :meth:`run` performs at end of stream) bit-identical to
        :meth:`~repro.cluster.aggregator.MergeTreeAggregator.
        global_view` on ``exact`` templates.
        """
        if self._gossip is None:
            raise StateError(
                "node_view() needs aggregation='gossip' "
                f"(this cluster runs {self._config.aggregation!r})"
            )
        return self._gossip.node_view(node_id, fanout=self._config.fanout)

    def close(self) -> None:
        """Release the store's backend resources (open WAL handles).

        Durable state is flushed as it is written, so closing loses
        nothing; a closed file-backed cluster can be re-opened with
        :func:`recover_cluster`.  Also usable as a context manager::

            with ClusterSimulation(config) as sim:
                sim.run(events)
        """
        self._store.close()

    def __enter__(self) -> "ClusterSimulation":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @property
    def archived_windows(self) -> list[GlobalView]:
        """Window views the retention policy has collapsed and kept."""
        return list(self._archived)

    # ------------------------------------------------------------------
    # event loop
    # ------------------------------------------------------------------
    def run(self, events: Iterable[KeyedEvent]) -> SimulationResult:
        """Drive the cluster over ``events`` and aggregate at the end.

        Delivery goes through the execution plan the config selects
        (:func:`~repro.cluster.pipeline.make_plan`): the serial loop at
        ``ingest_workers=1``, worker-sharded batches otherwise.  Either
        way the result is the same pure function of ``(config,
        stream)``; only the wall-clock fields differ.
        """
        plan = make_plan(self._config)
        started = time.perf_counter()
        plan.execute(self, events)
        if self._dead:
            # The stream ended with nodes still dead: the cluster must
            # notice and heal them itself before the run can finalize.
            # Settling is plain gossip rounds — detection, quorum, and
            # the heal all live inside gossip_round() — with a loud
            # backstop (an unreachable explicit quorum would otherwise
            # spin forever).
            limit = (
                self._config.suspect_after + 4 * len(self._nodes) + 16
            )
            settled = 0
            while self._dead:
                if settled >= limit:
                    raise StateError(
                        "membership failed to confirm dead nodes "
                        f"{sorted(self._dead)} within {limit} settle "
                        "rounds (is membership_quorum reachable?)"
                    )
                self.gossip_round()
                settled += 1
        for node in self._ordered_nodes():
            node.flush()
        elapsed = time.perf_counter() - started
        if self._gossip is not None:
            # Staleness is measured *before* the final anti-entropy pass
            # — it is the lag a decentralized read would have seen at
            # end of stream; the convergence rounds then drive every
            # node's view to the exact central answer.
            self._gossip_max_staleness = self._gossip.max_staleness(
                self._nodes
            )
            self._gossip_convergence_rounds = self._gossip.converge(
                self._nodes, epoch=self._router.epoch, window=self._window
            )
        self._sync_manifest()
        view = self._aggregator.global_view()
        if self._archived:
            view = merge_views([*self._archived, view])
        return self._result(view, elapsed)

    # ------------------------------------------------------------------
    # execution-plan hooks (repro.cluster.pipeline)
    # ------------------------------------------------------------------
    def deliver_event(self, event: KeyedEvent) -> None:
        """Deliver one event synchronously: route, log, apply, maybe fence.

        One :meth:`~repro.cluster.pipeline.StreamDriver.step` of the
        stream driver with inline delivery and a batch of one; no
        scheduled barrier runs (:meth:`run` owns the schedule).
        """
        StreamDriver(self, DeliveryBackend(self), delivery_batch=1).step(
            event
        )

    def fence_due(self, node_id: int, retained: int | None = None) -> bool:
        """Whether ``node_id`` must take a checkpoint now.

        True when its periodic budget (``checkpoint_every``) is spent or
        its ``retained`` write-ahead-log events (default: what the WAL
        holds now) fill a segment (``wal_segment_events``).  The second
        condition is the forced *segment fence*: it fires even when
        periodic checkpointing is disabled, which is what bounds the
        retained durable log by the segment size.  Never ask for a dead
        node: its WAL is the pending replay queue of its heal.
        """
        config = self._config
        every = config.checkpoint_every
        segment = config.wal_segment_events
        if retained is None:
            retained = self._store.wal.retained_events(node_id)
        return (
            every is not None and self._since_checkpoint[node_id] >= every
        ) or (segment is not None and retained >= segment)

    def set_migration_observer(
        self, observer: Callable[[str], None] | None
    ) -> None:
        """Install (or clear) the migration-batch wire observer.

        Execution-plan hook: while set, :meth:`_rebalance` hands every
        encoded batch line to ``observer`` (after journaling, before
        the in-process absorb) so the plan can replicate the move into
        its worker fleet at the same point in the move sequence.
        """
        self._migration_observer = observer

    # ------------------------------------------------------------------
    # checkpointing and failure
    # ------------------------------------------------------------------
    def _topology_stamp(self) -> dict[str, Any]:
        return {
            "epoch": self._router.epoch,
            "nodes": list(self._router.nodes),
            "routing": self._router.strategy.name,
        }

    def checkpoint_node(self, node_id: int) -> str:
        """Flush and checkpoint one node; truncates its durable log."""
        if node_id in self._dead:
            raise StateError(
                f"node {node_id} is dead: checkpointing its empty "
                "placeholder would fence away the WAL events pending "
                "replay at its heal"
            )
        telemetry = self._telemetry
        started = time.perf_counter() if telemetry.enabled else 0.0
        node = self._nodes[node_id]
        node.flush()
        wal_seq = self._store.wal.sequence(node_id)
        meta = {
            "node_id": node_id,
            "incarnation": self._incarnation[node_id],
            # The WAL fence position this checkpoint covers.  If the
            # process dies after the save but before the fence,
            # recovery truncates the log through this sequence so
            # the covered events can never be replayed on top of
            # themselves (the torn-fence protocol).
            "wal_seq": wal_seq,
            **node.lifetime_stats(),
        }
        line = BankCheckpoint.capture(
            node.bank,
            node.template,
            meta=meta,
            topology=self._topology_stamp(),
        ).encode()
        self._store.save(node_id, line)
        self._store.wal.fence(node_id)
        self._since_checkpoint[node_id] = 0
        self._metrics.inc("node_checkpoints", node=node_id)
        if telemetry.enabled:
            self._metrics.observe(
                "checkpoint_seconds", time.perf_counter() - started
            )
        telemetry.trace(
            "checkpoint_fence",
            position=self._stream_position,
            node=node_id,
            wal_seq=wal_seq,
        )
        self._sync_manifest()
        return line

    def _fence_all(self) -> None:
        """Checkpoint every live node (the window-collapse barrier).

        After a collapse every bank was reset, so none matches what
        "last checkpoint + log replay" would rebuild; the barrier
        re-checkpoints everything (truncating the logs) and recovery
        keeps its single code path — even when periodic checkpointing
        is disabled.  Migrations use the narrower per-move fence in
        :meth:`_rebalance`.
        """
        for node_id in sorted(self._nodes):
            self.checkpoint_node(node_id)

    def _recover_node(self, node_id: int) -> None:
        """The single recovery path: checkpoint restore + log replay.

        Bumps the node's incarnation (fresh seed — the replica must not
        share future coin flips with its dead predecessor), restores the
        store's latest checkpoint (or an empty bank if none was ever
        taken), then replays the durable log of events delivered since
        that checkpoint.  Used by :meth:`_revive` for a single crash or
        heal and by :func:`recover_cluster` for whole-process recovery.
        """
        node = self._reincarnate(node_id)
        line = self._store.latest(node_id)
        if line is not None:
            checkpoint = BankCheckpoint.decode(line)
            node.adopt_bank(checkpoint.restore(seed=node.bank.seed))
            node.restore_lifetime_stats(checkpoint.meta)
            wal_seq = checkpoint.meta.get("wal_seq")
            if wal_seq is not None:
                # Discard log entries the checkpoint already covers —
                # present only if the writer died between saving the
                # checkpoint and fencing its log.
                self._store.wal.truncate_through(node_id, int(wal_seq))
        self._nodes[node_id] = node
        if self._aggregator is not None:
            # The aggregator must see the replacement, not the corpse.
            self._sync_membership()
        replayed = self._store.wal.replay(node_id)
        for event in replayed:
            node.submit(event)
        self._since_checkpoint[node_id] = sum(
            event.count for event in replayed
        )
        self._metrics.inc("node_recoveries", node=node_id)
        self._telemetry.trace(
            "recover",
            position=self._stream_position,
            node=node_id,
            incarnation=self._incarnation[node_id],
            replayed=len(replayed),
        )

    def crash_node(self, node_id: int) -> None:
        """Destroy a node's volatile state, then recover it.

        Recovery = restore the last checkpoint (or an empty bank if none
        was ever taken) on a fresh incarnation seed, then replay the
        durable log of events delivered since that checkpoint.  If the
        replay leaves the node *overdue* — ``_since_checkpoint`` already
        at or past ``checkpoint_every``, or a WAL segment already full —
        the checkpoint is taken eagerly rather than deferred to the next
        delivery, so a crash-recover-crash at the same stream position
        can never replay the same log twice.
        """
        if node_id not in self._nodes:
            raise ParameterError(
                f"node {node_id} is not a live node "
                f"(live: {sorted(self._nodes)})"
            )
        if node_id in self._dead:
            raise StateError(
                f"node {node_id} is already dead; membership heals it, "
                "the driver must not"
            )
        self._metrics.inc("node_crashes", node=node_id)
        self._telemetry.trace(
            "crash", position=self._stream_position, node=node_id
        )
        self._revive(node_id)
        self._sync_manifest()

    def _revive(self, node_id: int) -> None:
        """:meth:`_recover_node`, then what the recovery leaves due.

        The checkpoint the replay may have made overdue is taken at
        once, and the node's own gossip digest entry is rebuilt.
        Shared by :meth:`crash_node` and the membership heal.
        """
        self._recover_node(node_id)
        if self.fence_due(node_id):
            self.checkpoint_node(node_id)
        if self._gossip is not None:
            # The digest died with the node's volatile state; rebuild
            # its own entry from the recovered bank (checkpoint + log
            # replay).  Entries learned from peers are re-learned by
            # later anti-entropy rounds.
            self._gossip.reset_node(node_id)
            self._gossip.refresh(
                self._nodes[node_id],
                epoch=self._router.epoch,
                window=self._window,
            )

    # ------------------------------------------------------------------
    # self-healing membership (repro.cluster.membership)
    # ------------------------------------------------------------------
    def apply_failure(self, failure: NodeFailure) -> None:
        """Apply one scheduled failure (execution-plan hook)."""
        if failure.heal:
            self.crash_node(failure.node_id)
        else:
            self.kill_node(failure.node_id)

    def kill_node(self, node_id: int) -> None:
        """Destroy a node's volatile state and do **not** recover it.

        The fault-injection half of self-healing membership: the node's
        bank and buffer die (replaced by an empty placeholder at the
        *same* incarnation — it draws no randomness, so the kill
        consumes no RNG), its digest is wiped **without** a refresh, and
        it stops participating in gossip rounds — so its entry's round
        stamp goes stale at every peer, which is what the failure
        detector feeds on.  The node stays in the router topology: its
        key range keeps routing here, and the events park in its durable
        WAL (no submits, no checkpoints) until the cluster confirms the
        death by quorum and heals it (:meth:`gossip_round`).
        """
        if self._membership is None:
            raise StateError(
                "kill_node() needs membership=True: nothing else would "
                "ever recover the node"
            )
        if node_id not in self._nodes:
            raise ParameterError(
                f"node {node_id} is not a live node "
                f"(live: {sorted(self._nodes)})"
            )
        if node_id in self._dead:
            raise StateError(f"node {node_id} is already dead")
        if len(self._nodes) - len(self._dead) <= 1:
            raise StateError(
                f"killing node {node_id} would leave no live survivor "
                "to detect it"
            )
        self._metrics.inc("node_crashes", node=node_id)
        self._metrics.inc("membership_kills_total")
        self._telemetry.trace(
            "kill", position=self._stream_position, node=node_id
        )
        assert self._gossip is not None  # membership requires gossip
        self._kill_rounds[node_id] = self._gossip.rounds
        self._dead.add(node_id)
        self._nodes[node_id] = self._fresh_node(
            node_id, self._incarnation[node_id]
        )
        self._since_checkpoint[node_id] = 0
        self._sync_membership()
        self._gossip.reset_node(node_id)
        self._sync_manifest()

    def _apply_membership(self) -> None:
        """Heal every origin the round just confirmed dead.

        Runs at the tail of :meth:`gossip_round` — a drained fence
        position in both execution plans, so serial and parallel runs
        heal at identical states.  A confirmation of an origin that is
        not actually dead (reachable only with an explicit
        ``membership_quorum`` below the live-node count) heals nothing;
        the origin's next refresh refutes it epidemically.
        """
        assert self._membership is not None
        for origin in self._membership.take_confirmed():
            if origin in self._dead:
                self._heal_node(origin)

    def _heal_node(self, origin: int) -> None:
        """Quorum-confirmed recovery of one dead node.

        ``membership_heal`` picks the path: ``recover`` replays the
        node's durable state (checkpoint + WAL) into a fresh
        incarnation; ``rebalance`` retires the id and migrates its key
        range to the survivors — after recovering it first, so the
        drain hands the survivors *everything* the dead node ever
        accepted (losslessness).  ``auto`` recovers when the store
        holds any of the node's state and rebalances away otherwise.
        """
        assert self._gossip is not None
        mode = self._config.membership_heal
        if mode == "auto":
            has_state = (
                self._store.latest(origin) is not None
                or self._store.wal.retained_events(origin) > 0
            )
            mode = "recover" if has_state else "rebalance"
        waited = self._gossip.rounds - self._kill_rounds.get(
            origin, self._gossip.rounds
        )
        self._membership_detection_rounds[origin] = waited
        if mode == "recover":
            self._heal_recover(origin)
        else:
            # No rebalance may run while any node is dead: the router
            # would migrate keys into an empty placeholder whose state
            # is lost at its own heal.  Recover the origin inline
            # (losslessness: the drain must hand the survivors
            # everything the dead node ever accepted), fence-heal any
            # *other* dead nodes, then drain the id away.  One
            # ``membership_heals_total`` tick per resolved kill: the
            # origin's is the increment below, the others' happen
            # inside the fence.
            self._heal_recover(origin)
            self._fence_heal_dead()
            self.scale_down(origin)
        self._metrics.inc("membership_heals_total")
        self._telemetry.trace(
            "membership_heal",
            position=self._stream_position,
            node=origin,
            mode=mode,
            rounds=waited,
        )
        self._sync_manifest()

    def _heal_recover(self, origin: int) -> None:
        """The recover path of a heal: :meth:`crash_node` minus the
        crash (that was accounted at the kill)."""
        self._dead.discard(origin)
        self._kill_rounds.pop(origin, None)
        self._revive(origin)

    def _fence_heal_dead(self) -> None:
        """Force-heal every dead node (recover path), quorum or not.

        Topology changes and window collapses are full-cluster
        coordination points: a rebalance must not migrate keys into a
        dead placeholder, and a window must not archive a view missing
        a dead node's counts.  Both therefore heal the dead first —
        deterministically, at the same fenced stream position in serial
        and parallel runs.
        """
        for origin in sorted(self._dead):
            self._heal_recover(origin)
            self._metrics.inc("membership_heals_total")
            self._telemetry.trace(
                "membership_heal",
                position=self._stream_position,
                node=origin,
                mode="recover",
                forced=True,
            )
        if self._kill_rounds:
            self._kill_rounds.clear()

    # ------------------------------------------------------------------
    # elastic scaling
    # ------------------------------------------------------------------
    def apply_scale(self, scale: ScaleEvent) -> None:
        """Apply one scheduled topology change (execution-plan hook)."""
        if scale.action == "add":
            self.scale_up(scale.node_id)
        else:
            assert scale.node_id is not None  # enforced by ScaleEvent
            self.scale_down(scale.node_id)

    def _rebalance(self) -> None:
        """Migrate every key whose home moved, then fence the movers.

        Only nodes a batch actually touched (sources and targets) need
        a fence checkpoint: an untouched node's bank is still exactly
        what its last checkpoint plus log replay rebuilds (a flush only
        applies events already in the log), so its recovery path is
        unaffected.  With ring routing this keeps a resize's checkpoint
        cost proportional to the state that moved, not cluster size.

        The whole move happens in process memory and only reaches
        durability at the closing fence checkpoints, so the durable
        state is *inconsistent* until the last fence lands.  The
        manifest flags that window (``mid_migration``) before the first
        counter moves, and every batch line is journaled in the store
        *before* its absorb — between drain and absorb the journal is
        the only durable copy of the moved counters — so
        :func:`recover_cluster` can replay a migration whose writer
        died inside it (:meth:`_replay_migration_journal`) instead of
        refusing.
        """
        self._mid_migration = True
        self._sync_manifest()
        plan = plan_rebalance(
            self._nodes,
            self._router.home_node,
            epoch=self._router.epoch,
        )
        observer = self._migration_observer

        def on_batch(line: str) -> None:
            # Durability first: the journal append must land before the
            # wire ship / in-process absorb consumes the drained state.
            self._store.journal_migration(line)
            if observer is not None:
                observer(line)

        report = execute_rebalance(
            plan, self._nodes, seed=self._config.seed, on_batch=on_batch
        )
        self._metrics.inc("keys_migrated_total", report.keys_moved)
        self._metrics.inc("migration_batches_total", report.n_batches)
        self._metrics.inc("migration_bytes_total", report.bytes_shipped)
        self._telemetry.trace(
            "migration",
            position=self._stream_position,
            epoch=self._router.epoch,
            keys_moved=report.keys_moved,
            batches=report.n_batches,
            bytes_shipped=report.bytes_shipped,
        )
        touched = {move.source for move in plan.moves} | {
            move.target for move in plan.moves
        }
        # A node leaving the topology (scale-down source) is about to be
        # retired; checkpointing its now-empty bank would be wasted.
        for node_id in sorted(touched & set(self._router.nodes)):
            self.checkpoint_node(node_id)
        self._mid_migration = False
        # Ordering matters: the manifest must record the completed
        # migration (flag cleared) *before* the journal is dropped.  A
        # death in between leaves flag=False plus a stale journal,
        # which recovery ignores and clears; the reverse order could
        # leave flag=True with no journal — an unrecoverable refusal.
        self._sync_manifest()
        self._store.clear_migration_journal()

    def scale_up(self, node_id: int | None = None) -> int:
        """Add one ingest node and migrate its keys in; returns its id.

        The new node's seed derives from the cluster seed, its id, and
        its incarnation, exactly like an initial node — so an elastic
        run is as reproducible as a static one.  Auto-assigned ids are
        monotone over the cluster's whole history, and an explicitly
        reused id starts at a bumped incarnation: either way a new node
        can never share RNG streams with a retired predecessor, which
        would break the independence Remark 2.4's merging assumes.
        """
        self._fence_heal_dead()
        if node_id is None:
            node_id = self._next_auto_id
        new_id = self._router.add_node(node_id)
        self._next_auto_id = max(self._next_auto_id, new_id + 1)
        self._nodes[new_id] = self._reincarnate(new_id)
        self._init_bookkeeping(new_id)
        if self._gossip is not None:
            self._gossip.add_node(new_id)
        self._sync_membership()
        self._rebalance()
        self._metrics.inc("scale_events_total")
        self._sync_manifest()
        return new_id

    def scale_down(self, node_id: int) -> None:
        """Drain one node into the survivors and retire it.

        Every key the node holds migrates to its new home (the node is
        no longer in the topology, so every key has one); its lifetime
        stats — including the keys and state bits it held at drain time
        — are preserved in the result as a ``retired`` row.
        """
        if node_id not in self._nodes:
            raise ParameterError(
                f"node {node_id} is not a live node "
                f"(live: {sorted(self._nodes)})"
            )
        if len(self._nodes) == 1:
            raise ParameterError("cannot remove the last node")
        self._fence_heal_dead()
        retiring = self._nodes[node_id]
        retiring.flush()
        keys_at_drain = len(retiring.bank)
        state_bits_at_drain = retiring.state_bits()
        self._router.remove_node(node_id)
        # The retiring node stays in the mapping as a migration source;
        # the router no longer targets it, so the rebalance empties it.
        self._rebalance()
        node = self._nodes.pop(node_id)
        checkpoints, recoveries = self._tenure_counts(node_id)
        self._retired.append(
            NodeStats(
                node_id=node_id,
                events=node.events_ingested,
                keys=keys_at_drain,
                flushes=node.n_flushes,
                checkpoints=checkpoints,
                recoveries=recoveries,
                state_bits=state_bits_at_drain,
                retired=True,
            )
        )
        del self._stats_base[node_id]
        self._store.drop(node_id)
        del self._since_checkpoint[node_id]
        if self._gossip is not None:
            # The drained keys now live in the survivors' banks, so the
            # retiring origin's entry must leave every digest — keeping
            # it would double-count its traffic forever.
            self._gossip.remove_node(node_id)
        self._sync_membership()
        self._metrics.inc("scale_events_total")
        self._sync_manifest()

    # ------------------------------------------------------------------
    # windowed retention
    # ------------------------------------------------------------------
    def collapse_window(self) -> GlobalView:
        """Close the current window: archive its view, reset the banks.

        Returns the archived view.  The archive keeps at most the
        policy's ``retained_windows`` views (all of them for unbounded
        policies); every node then takes a fence checkpoint of its
        fresh, empty bank so crash recovery never resurrects the closed
        window.
        """
        self._fence_heal_dead()
        self._window += 1
        view = self._aggregator.collapse_window(self._window)
        self._archived.append(view)
        self._metrics.inc("windows_collapsed_total")
        self._telemetry.trace(
            "retention_collapse",
            position=self._stream_position,
            window=self._window,
            archived_keys=view.n_keys,
        )
        self._fence_all()
        return view

    # ------------------------------------------------------------------
    # result assembly
    # ------------------------------------------------------------------
    def _result(
        self, view: GlobalView, elapsed: float
    ) -> SimulationResult:
        # Clamp the wall-clock floor so events_per_sec stays finite (and
        # therefore valid strict JSON) even when a tiny run lands inside
        # a single perf_counter tick.
        elapsed = max(elapsed, _MIN_ELAPSED_S)
        live_stats = []
        for node in self._ordered_nodes():
            checkpoints, recoveries = self._tenure_counts(node.node_id)
            live_stats.append(
                NodeStats(
                    node_id=node.node_id,
                    events=node.events_ingested,
                    keys=len(node.bank),
                    flushes=node.n_flushes,
                    checkpoints=checkpoints,
                    recoveries=recoveries,
                    state_bits=node.state_bits(),
                )
            )
        node_stats = tuple(
            sorted(self._retired + live_stats, key=lambda s: s.node_id)
        )
        total_events = sum(s.events for s in node_stats)
        mean = rms = worst = None
        if view.truth is not None and view.n_keys:
            report = view.error_report()
            mean = report.mean_relative_error
            rms = report.rms_relative_error
            worst = report.max_relative_error
            state_bits = report.total_state_bits
        else:
            state_bits = view.total_state_bits()
        top = tuple(
            (
                key,
                estimate,
                view.truth.get(key, 0) if view.truth is not None else None,
            )
            for key, estimate in view.top_keys(5)
        )
        return SimulationResult(
            n_nodes=len(self._nodes),
            total_events=total_events,
            n_keys=view.n_keys,
            hot_keys=len(self._router.hot_keys),
            merge_rounds=view.merge_rounds,
            total_state_bits=state_bits,
            node_stats=node_stats,
            top=top,
            mean_relative_error=mean,
            rms_relative_error=rms,
            max_relative_error=worst,
            elapsed_s=elapsed,
            events_per_sec=total_events / elapsed,
            epoch=self._router.epoch,
            scale_events_applied=self._metrics.counter(
                "scale_events_total"
            ),
            keys_migrated=self._metrics.counter("keys_migrated_total"),
            migration_batches=self._metrics.counter(
                "migration_batches_total"
            ),
            migration_bytes=self._metrics.counter(
                "migration_bytes_total"
            ),
            windows_collapsed=self._metrics.counter(
                "windows_collapsed_total"
            ),
            windows_retained=len(self._archived),
            storage_bytes=self._store.storage_bytes(),
            gossip_rounds=(
                self._gossip.rounds if self._gossip is not None else 0
            ),
            gossip_convergence_rounds=self._gossip_convergence_rounds,
            gossip_max_staleness=self._gossip_max_staleness,
            membership_kills=self._metrics.counter(
                "membership_kills_total"
            ),
            membership_suspicions=self._metrics.counter(
                "membership_suspicions_total"
            ),
            membership_confirmations=self._metrics.counter(
                "membership_confirmations_total"
            ),
            membership_heals=self._metrics.counter(
                "membership_heals_total"
            ),
            membership_detection_rounds=max(
                self._membership_detection_rounds.values(), default=0
            ),
        )


# ----------------------------------------------------------------------
# crash recovery from disk
# ----------------------------------------------------------------------
#: ``ClusterConfig`` fields the manifest does not echo.  The node count
#: is the topology stamp's; the schedule (failures, scale events,
#: retention) describes stream positions a recovered cluster has already
#: consumed; the storage location is wherever the manifest was found.
_UNECHOED_FIELDS = frozenset(
    ("n_nodes", "failures", "scale_events", "retention")
    + ("storage", "storage_dir", "storage_overwrite")
)


def _config_echo(config: ClusterConfig) -> dict[str, Any]:
    """The manifest's JSON echo of every persisted config field."""
    echo: dict[str, Any] = {}
    for spec in fields(ClusterConfig):
        if spec.name not in _UNECHOED_FIELDS:
            value = getattr(config, spec.name)
            if isinstance(value, CounterTemplate):
                value = value.to_dict()
            elif isinstance(value, tuple):
                value = list(value)
            echo[spec.name] = value
    return echo


def _config_from_manifest(
    manifest: dict[str, Any], storage_dir: str
) -> ClusterConfig:
    """Rebuild a :class:`ClusterConfig` from a persisted manifest.

    The inverse of :func:`_config_echo`, type-checked field by field
    against the dataclass annotations because the manifest is input
    from outside the process.  A key an older manifest lacks takes the
    field's default; schedule fields are never persisted, so the
    rebuilt config carries none.
    """
    hints = get_type_hints(ClusterConfig)
    try:
        echoed = manifest["config"]
        values: dict[str, Any] = {}
        for name in echoed.keys() & hints.keys() - _UNECHOED_FIELDS:
            value, hint = echoed[name], hints[name]
            if hint is CounterTemplate:
                value = CounterTemplate.from_dict(value)
            elif get_origin(hint) is tuple:
                if type(value) is not list or not all(
                    type(item) is get_args(hint)[0] for item in value
                ):
                    raise TypeError(f"{name} must be {hint}")
                value = tuple(value)
            elif type(value) not in (get_args(hint) or (hint,)):
                raise TypeError(
                    f"{name} must be {hint}, got {type(value).__name__}"
                )
            values[name] = value
        return ClusterConfig(
            n_nodes=max(len(manifest["topology"]["nodes"]), 1),
            storage="file",
            storage_dir=storage_dir,
            **values,
        )
    except (
        AttributeError,
        KeyError,
        TypeError,
        ValueError,
        ParameterError,
    ) as exc:
        raise StateError(f"malformed cluster manifest: {exc}") from exc


def recover_cluster(path: str) -> ClusterSimulation:
    """Rebuild a live simulation from a :class:`~repro.cluster.storage.
    FileStore` directory.

    The directory's manifest supplies the topology stamp (router epoch
    and node ids) and the config echo; every node then runs the standard
    recovery path — bumped incarnation, latest checkpoint restore,
    durable-log replay — exactly as if the whole cluster crashed at
    once.  On ``exact`` templates the recovered
    :meth:`~repro.cluster.aggregator.MergeTreeAggregator.global_view` is
    bit-identical to the pre-crash cluster's, crashes mid-migration
    included (a tier-1 invariant).

    Not recovered (volatile by design): archived retention windows (the
    live window resumes), the router's hot-key cursors and traffic
    table, and any un-fired failure/scale schedule.

    Raises :class:`~repro.errors.StateError` when the directory holds no
    manifest or any persisted record fails its checksum.
    """
    store = FileStore(path)
    try:
        manifest = store.load()
        config = _config_from_manifest(manifest, storage_dir=str(path))
        return ClusterSimulation(config, store=store, resume=True)
    except BaseException:
        # Failed recovery (no/corrupt manifest, mid-migration refusal,
        # checksum mismatch) must not leak the WAL handles load opened.
        store.close()
        raise
