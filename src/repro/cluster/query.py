"""The cluster's one blessed read surface: ``ClusterReader``.

Reads used to be scattered across ad-hoc accessors — the aggregator's
``global_view()``, raw digest lookups, bench dict shaping.  This module
unifies them behind one versioned query API that both the in-process
callers and the HTTP frontend (:mod:`repro.cluster.httpd`) share:

* :meth:`ClusterReader.get` — one key's count;
* :meth:`ClusterReader.top_k` — the k heaviest keys;
* :meth:`ClusterReader.view` — the whole folded view;
* :meth:`ClusterReader.subscribe` — incremental count updates
  (:class:`Subscription`, the SSE feed's engine).

Every query takes a ``consistency=`` parameter:

``"replica"``
    Answer from one node's local gossip digest
    (:meth:`~repro.cluster.gossip.GossipNetwork.node_view` — a pure
    read: no flush, no RNG) and stamp the answer with an honest
    staleness bound (:meth:`~repro.cluster.gossip.GossipNetwork.
    digest_staleness`).  This is the "millions of readers" path: cheap,
    local, stale by at most the traffic since the origins' last
    refresh — and bit-identical to the central answer once the network
    has converged (on ``exact`` templates).
``"consistent"``
    Pay for the central fold
    (:meth:`~repro.cluster.aggregator.MergeTreeAggregator._fold_view`):
    flush every node, then merge every key whose counters changed since
    the previous fold; unchanged keys reuse that fold's merged counters
    (:class:`~repro.cluster.aggregator.FoldMemo`).  Zero staleness; the
    cost grows with the keys that changed, plus one stamp comparison per
    key held.

Answers are the typed entities of :mod:`repro.cluster.entities`
(``KeyCount`` / ``TopK`` / ``ViewSnapshot``), each stamped with a
:class:`~repro.cluster.entities.StalenessInfo`; :meth:`ClusterReader.
raw_view` exposes the underlying ``GlobalView`` for bit-identity
comparisons.

A per-template **read cache** sits under every query: folded views are
memoized per ``(consistency, replica)`` and invalidated by a validity
stamp — the digest's version/epoch stamp
(:meth:`~repro.cluster.gossip.GossipNetwork.read_stamp`) on the
replica path, the live nodes' lifetime event counts plus the topology
epoch on the consistent path — so a burst of reads against an idle
cluster folds once.

**Inertness.**  Replica reads never touch node state at all.  A
consistent read flushes (exactly as ``global_view()`` always has) —
which is why the served-run property test
(``tests/cluster/test_properties.py``) pins that serving a finished
run, replica and consistent endpoints included, leaves its fingerprint
bit-identical to an unserved run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Mapping

from repro.cluster.entities import (
    READ_CONSISTENCY,
    KeyCount,
    StalenessInfo,
    TopK,
    ViewSnapshot,
)
from repro.errors import ParameterError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.aggregator import GlobalView, MergeTreeAggregator
    from repro.cluster.gossip import GossipNetwork
    from repro.cluster.node import IngestNode
    from repro.cluster.simulation import ClusterSimulation

__all__ = ["READ_CONSISTENCY", "ClusterReader", "Subscription"]


class ClusterReader:
    """Unified, cached, consistency-aware reads over one cluster.

    Parameters
    ----------
    aggregator:
        The cluster's :class:`~repro.cluster.aggregator.
        MergeTreeAggregator` (the consistent path's fold).
    gossip:
        The :class:`~repro.cluster.gossip.GossipNetwork`, when the
        cluster runs ``aggregation="gossip"`` — required for replica
        reads, absent for tree-only clusters.
    nodes:
        Live ``node id → IngestNode`` mapping used for staleness
        accounting; defaults to the aggregator's current nodes (pass a
        callable-free mapping only for static test fixtures — prefer
        :meth:`from_simulation`, which tracks topology changes).
    consistency:
        Reader-level default for queries that do not pass their own:
        ``"replica"`` when a gossip network is attached, else
        ``"consistent"``.
    replica:
        Default replica node id for replica reads (smallest gossip
        participant when unset).
    fanout:
        Merge fanout for replica folds (the cluster's ``config.fanout``).
    gossip_every:
        The configured gossip cadence, echoed into every staleness
        stamp as ``bound_events``.
    registry:
        Optional :class:`~repro.obs.MetricsRegistry`; the reader
        publishes ``queries_total`` / ``query_cache_hits_total`` /
        ``query_cache_misses_total`` counters into it.
    """

    def __init__(
        self,
        aggregator: "MergeTreeAggregator",
        *,
        gossip: "GossipNetwork | None" = None,
        nodes: Mapping[int, "IngestNode"] | None = None,
        consistency: str | None = None,
        replica: int | None = None,
        fanout: int = 2,
        gossip_every: int | None = None,
        registry: Any = None,
    ) -> None:
        if consistency is not None and consistency not in READ_CONSISTENCY:
            known = ", ".join(READ_CONSISTENCY)
            raise ParameterError(
                f"unknown consistency {consistency!r}; known: {known}"
            )
        self._aggregator = aggregator
        self._gossip = gossip
        self._nodes = dict(nodes) if nodes is not None else None
        self._simulation: "ClusterSimulation | None" = None
        self._consistency = consistency
        self._replica = replica
        self._fanout = fanout
        self._gossip_every = gossip_every
        self._registry = registry
        #: ``(consistency, replica) -> (stamp, GlobalView)``
        self._cache: dict[tuple[str, int | None], tuple[Any, Any]] = {}
        self.cache_hits = 0
        self.cache_misses = 0

    @classmethod
    def from_simulation(
        cls,
        simulation: "ClusterSimulation",
        *,
        consistency: str | None = None,
        replica: int | None = None,
    ) -> "ClusterReader":
        """A reader over a live simulation (topology changes tracked)."""
        config = simulation.config
        reader = cls(
            simulation.aggregator,
            gossip=(
                simulation.gossip
                if config.aggregation == "gossip"
                else None
            ),
            consistency=consistency,
            replica=replica,
            fanout=config.fanout,
            gossip_every=config.gossip_every,
            registry=simulation.telemetry.registry,
        )
        reader._simulation = simulation
        return reader

    # ------------------------------------------------------------------
    # resolution helpers
    # ------------------------------------------------------------------
    @property
    def replicas(self) -> tuple[int, ...]:
        """Node ids replica reads may target (empty without gossip)."""
        if self._gossip is None:
            return ()
        return self._gossip.node_ids

    def _resolve_consistency(self, consistency: str | None) -> str:
        if consistency is None:
            consistency = self._consistency
        if consistency is None:
            consistency = (
                "replica" if self._gossip is not None else "consistent"
            )
        if consistency not in READ_CONSISTENCY:
            known = ", ".join(READ_CONSISTENCY)
            raise ParameterError(
                f"unknown consistency {consistency!r}; known: {known}"
            )
        return consistency

    def _resolve_replica(self, replica: int | None) -> int:
        if self._gossip is None:
            raise ParameterError(
                "replica reads need a gossip network "
                "(aggregation='gossip'); this cluster only supports "
                "consistency='consistent'"
            )
        if replica is None:
            replica = self._replica
        if replica is None:
            participants = self._gossip.node_ids
            if not participants:
                raise ParameterError(
                    "gossip network has no participants to read from"
                )
            replica = participants[0]
        self._gossip.digest(replica)  # loud on unknown replica ids
        return replica

    def _live_nodes(self) -> dict[int, "IngestNode"]:
        if self._simulation is not None:
            return {
                node.node_id: node for node in self._simulation.nodes
            }
        if self._nodes is not None:
            return dict(self._nodes)
        return {
            node.node_id: node for node in self._aggregator.nodes
        }

    def _count(self, endpoint: str, consistency: str) -> None:
        if self._registry is not None:
            self._registry.inc(
                "queries_total",
                endpoint=endpoint,
                consistency=consistency,
            )

    # ------------------------------------------------------------------
    # the cached fold
    # ------------------------------------------------------------------
    def _consistent_stamp(self) -> tuple[Any, ...]:
        """Validity stamp for the consistent path: changes whenever any
        node accepted traffic, flushed differently, reset a window, or
        the topology epoch moved."""
        nodes = self._live_nodes()
        return (
            self._aggregator.epoch,
            tuple(
                (
                    node_id,
                    node.events_ingested,
                    node.pending,
                    len(node.bank),
                )
                for node_id, node in sorted(nodes.items())
            ),
        )

    def raw_view(
        self,
        consistency: str | None = None,
        replica: int | None = None,
    ) -> "GlobalView":
        """The folded ``GlobalView`` itself (cached; for bit-identity
        comparisons and entity-free callers)."""
        consistency = self._resolve_consistency(consistency)
        if consistency == "replica":
            replica = self._resolve_replica(replica)
            assert self._gossip is not None
            view_key = ("replica", replica)
            stamp = self._gossip.read_stamp(replica)
            cached = self._cache.get(view_key)
            if cached is not None and cached[0] == stamp:
                self._note_cache(hit=True)
                return cached[1]
            view = self._gossip.node_view(replica, fanout=self._fanout)
            self._cache[view_key] = (stamp, view)
            self._note_cache(hit=False)
            return view
        view_key = ("consistent", None)
        cached = self._cache.get(view_key)
        if cached is not None and cached[0] == self._consistent_stamp():
            self._note_cache(hit=True)
            return cached[1]
        view = self._aggregator._fold_view()
        # Stamp *after* the fold so the flushed (pending=0) state is
        # what the cache validates against — the next idle read hits.
        self._cache[view_key] = (self._consistent_stamp(), view)
        self._note_cache(hit=False)
        return view

    def _note_cache(self, hit: bool) -> None:
        if hit:
            self.cache_hits += 1
        else:
            self.cache_misses += 1
        if self._registry is not None:
            self._registry.inc(
                "query_cache_hits_total"
                if hit
                else "query_cache_misses_total"
            )

    def invalidate(self) -> None:
        """Drop every cached view (stamps re-validate lazily anyway)."""
        self._cache.clear()

    # ------------------------------------------------------------------
    # staleness
    # ------------------------------------------------------------------
    def staleness(
        self,
        consistency: str | None = None,
        replica: int | None = None,
    ) -> StalenessInfo:
        """The stamp a query with these parameters would carry."""
        consistency = self._resolve_consistency(consistency)
        if consistency == "replica":
            replica = self._resolve_replica(replica)
            assert self._gossip is not None
            stamp = self._gossip.read_stamp(replica)
            return StalenessInfo(
                consistency="replica",
                replica=replica,
                lag_events=self._gossip.digest_staleness(
                    replica, self._live_nodes()
                ),
                bound_events=self._gossip_every,
                epoch=max(
                    (entry[2] for entry in stamp), default=0
                ),
            )
        return StalenessInfo(
            consistency="consistent",
            replica=None,
            lag_events=0,
            bound_events=self._gossip_every,
            epoch=self._aggregator.epoch,
        )

    # ------------------------------------------------------------------
    # the query API
    # ------------------------------------------------------------------
    def get(
        self,
        key: str,
        consistency: str | None = None,
        replica: int | None = None,
    ) -> KeyCount:
        """One key's count (0 for unseen keys), staleness-stamped."""
        consistency = self._resolve_consistency(consistency)
        self._count("get", consistency)
        view = self.raw_view(consistency, replica)
        return KeyCount.from_view(
            view, key, self.staleness(consistency, replica)
        )

    def top_k(
        self,
        k: int,
        consistency: str | None = None,
        replica: int | None = None,
    ) -> TopK:
        """The ``k`` heaviest keys, heaviest first."""
        consistency = self._resolve_consistency(consistency)
        self._count("top_k", consistency)
        view = self.raw_view(consistency, replica)
        return TopK.from_view(
            view, k, self.staleness(consistency, replica)
        )

    def view(
        self,
        consistency: str | None = None,
        replica: int | None = None,
    ) -> ViewSnapshot:
        """The whole folded view as a typed snapshot."""
        consistency = self._resolve_consistency(consistency)
        self._count("view", consistency)
        view = self.raw_view(consistency, replica)
        return ViewSnapshot.from_view(
            view, self.staleness(consistency, replica)
        )

    def subscribe(
        self,
        keys: Iterable[str] | None = None,
        consistency: str | None = None,
        replica: int | None = None,
    ) -> "Subscription":
        """Incremental count updates (the SSE feed's engine)."""
        consistency = self._resolve_consistency(consistency)
        self._count("subscribe", consistency)
        return Subscription(self, keys, consistency, replica)


class Subscription:
    """Pull-based incremental updates over one reader.

    Each :meth:`poll` folds the current view (through the reader's
    cache) and returns the keys whose estimates changed since the
    previous poll, as staleness-stamped ``KeyCount`` updates in sorted
    key order — deterministic and read-only, so a subscriber never
    perturbs the cluster.  The first poll reports every (tracked) key.
    The HTTP ``/v1/stream`` endpoint drains one of these into
    Server-Sent Events.
    """

    def __init__(
        self,
        reader: ClusterReader,
        keys: Iterable[str] | None,
        consistency: str,
        replica: int | None,
    ) -> None:
        self._reader = reader
        self._keys = tuple(sorted(set(keys))) if keys is not None else None
        self._consistency = consistency
        self._replica = replica
        self._last: dict[str, float] = {}

    @property
    def consistency(self) -> str:
        """The read mode every poll uses."""
        return self._consistency

    def poll(self) -> tuple[KeyCount, ...]:
        """Changed keys since the last poll (all keys on first poll)."""
        view = self._reader.raw_view(self._consistency, self._replica)
        staleness = self._reader.staleness(
            self._consistency, self._replica
        )
        watched = (
            self._keys
            if self._keys is not None
            else tuple(sorted(view.counters))
        )
        updates = []
        for key in watched:
            estimate = view.estimate(key)
            if self._last.get(key) != estimate:
                self._last[key] = estimate
                updates.append(
                    KeyCount.from_view(view, key, staleness)
                )
        return tuple(updates)
