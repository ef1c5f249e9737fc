"""The cluster's one blessed read surface: ``ClusterReader``.

One versioned query API, shared by in-process callers and the HTTP
frontend (:mod:`repro.cluster.httpd`), over one of two sources: a live
simulation (:meth:`ClusterReader.from_simulation`, described below) or
a ``cluster serve`` fleet over the wire (:meth:`ClusterReader.from_fleet`):

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

from typing import TYPE_CHECKING, Any, Iterable

from repro.cluster.entities import (
    READ_CONSISTENCY,
    KeyCount,
    StalenessInfo,
    TopK,
    ViewSnapshot,
)
from repro.errors import ParameterError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from pathlib import Path

    from repro.cluster.aggregator import GlobalView
    from repro.cluster.gossip import GossipNetwork
    from repro.cluster.node import IngestNode
    from repro.cluster.simulation import ClusterSimulation

__all__ = ["READ_CONSISTENCY", "ClusterReader", "Subscription"]


class _SimulationSource:
    """In-process reads over a live simulation (topology tracked)."""

    def __init__(self, simulation: "ClusterSimulation") -> None:
        config = simulation.config
        self._simulation = simulation
        self._aggregator = simulation.aggregator
        self._gossip: "GossipNetwork | None" = (
            simulation.gossip if config.aggregation == "gossip" else None
        )
        self._fanout = config.fanout
        self._gossip_every = config.gossip_every
        self.default_consistency = (
            "replica" if self._gossip is not None else "consistent"
        )

    @property
    def replicas(self) -> tuple[int, ...]:
        if self._gossip is None:
            return ()
        return self._gossip.node_ids

    def resolve_replica(
        self, consistency: str, replica: int | None
    ) -> int | None:
        if consistency != "replica":
            return None
        if self._gossip is None:
            raise ParameterError(
                "replica reads need a gossip network "
                "(aggregation='gossip'); this cluster only supports "
                "consistency='consistent'"
            )
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
        return {node.node_id: node for node in self._simulation.nodes}

    def stamp(self, consistency: str, replica: int | None) -> Any:
        """The digest's version/epoch stamp for a replica read; else one
        that moves with any node's traffic, flushes, windows or epoch."""
        if consistency == "replica":
            return self._gossip.read_stamp(replica)
        return (
            self._aggregator.epoch,
            tuple(
                (
                    node_id,
                    node.events_ingested,
                    node.pending,
                    len(node.bank),
                )
                for node_id, node in sorted(self._live_nodes().items())
            ),
        )

    def fold(
        self, consistency: str, replica: int | None
    ) -> tuple["GlobalView", Any]:
        if consistency == "replica":
            view = self._gossip.node_view(replica, fanout=self._fanout)
        else:
            view = self._aggregator._fold_view()
        # Stamp *after* the fold so the flushed (pending=0) state is
        # what the cache validates against — the next idle read hits.
        return view, self.stamp(consistency, replica)

    def staleness(
        self, consistency: str, replica: int | None
    ) -> StalenessInfo:
        if consistency == "replica":
            lag = self._gossip.digest_staleness(
                replica, self._live_nodes()
            )
            stamp = self.stamp(consistency, replica)
            epoch = max((entry[2] for entry in stamp), default=0)
        else:
            lag, epoch = 0, self._aggregator.epoch
        return StalenessInfo(
            consistency=consistency,
            replica=replica,
            lag_events=lag,
            bound_events=self._gossip_every,
            epoch=epoch,
        )


class ClusterReader:
    """Unified, cached, consistency-aware reads over one cluster.

    Build one with :meth:`from_simulation` (in-process) or
    :meth:`from_fleet` (a live ``cluster serve`` fleet, over the wire).

    Parameters
    ----------
    source:
        Where reads come from: the in-process or the wire source (each
        provides ``replicas``, ``default_consistency``, and
        ``resolve_replica`` / ``stamp`` / ``fold`` → ``(view, stamp)``
        / ``staleness`` of ``(consistency, replica)``).
    consistency:
        Reader-level default for queries that do not pass their own;
        the source's default (``"replica"`` when replicas exist) when
        unset.
    registry:
        Optional :class:`~repro.obs.MetricsRegistry`; the reader
        publishes ``queries_total`` / ``query_cache_hits_total`` /
        ``query_cache_misses_total`` counters into it.
    """

    def __init__(
        self,
        source: Any,
        *,
        consistency: str | None = None,
        registry: Any = None,
    ) -> None:
        self._source = source
        self._consistency = self._resolve_consistency(
            consistency or source.default_consistency
        )
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
    ) -> "ClusterReader":
        """A reader over a live simulation (topology changes tracked)."""
        return cls(
            _SimulationSource(simulation),
            consistency=consistency,
            registry=simulation.telemetry.registry,
        )

    @classmethod
    def from_fleet(
        cls, root: str | Path, *, timeout: float = 5.0
    ) -> "ClusterReader":
        """A reader over the ``cluster serve`` fleet under ``root``, over
        the wire protocol; ``timeout`` bounds each socket request."""
        from repro.cluster.serve import _FleetSource
        from repro.obs import MetricsRegistry

        return cls(
            _FleetSource(root, timeout), registry=MetricsRegistry()
        )

    # ------------------------------------------------------------------
    # resolution helpers
    # ------------------------------------------------------------------
    @property
    def replicas(self) -> tuple[int, ...]:
        """The source's node ids: gossip participants in-process
        (empty without gossip), the workers over a fleet."""
        return self._source.replicas

    def _resolve_consistency(self, consistency: str | None) -> str:
        if consistency is None:
            consistency = self._consistency
        if consistency not in READ_CONSISTENCY:
            known = ", ".join(READ_CONSISTENCY)
            raise ParameterError(
                f"unknown consistency {consistency!r}; known: {known}"
            )
        return consistency

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
    def raw_view(
        self,
        consistency: str | None = None,
        replica: int | None = None,
    ) -> "GlobalView":
        """The folded ``GlobalView`` itself (cached; for bit-identity
        comparisons and entity-free callers)."""
        consistency = self._resolve_consistency(consistency)
        replica = self._source.resolve_replica(consistency, replica)
        view_key = (consistency, replica)
        cached = self._cache.get(view_key)
        if cached is not None and cached[0] == self._source.stamp(
            consistency, replica
        ):
            self._note_cache(hit=True)
            return cached[1]
        view, stamp = self._source.fold(consistency, replica)
        self._cache[view_key] = (stamp, view)
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
        replica = self._source.resolve_replica(consistency, replica)
        return self._source.staleness(consistency, replica)

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
