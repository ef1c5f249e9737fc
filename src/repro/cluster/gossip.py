"""Gossip-style partial aggregation: the decentralized read path.

The merge tree (:mod:`repro.cluster.aggregator`) answers queries by
pulling every node's bank to one place — the right shape for an
end-of-window report, the wrong one for "every node should be able to
answer locally".  This module adds the epidemic alternative: every node
keeps an epoch-stamped partial :class:`~repro.cluster.aggregator.
GlobalView` **digest**, and on simulation-driven gossip rounds the nodes
exchange and merge digests with seeded-random peers (push-pull,
configurable fanout).  After a round a node's *local* read covers more
of the cluster; once every entry has propagated, every node's read
equals the central merge-tree answer — bit for bit on ``exact``
templates.

Why gossip can be exact here
----------------------------
Naively merging two nodes' partial sums double-counts whatever both
already knew.  The digests avoid that the way anti-entropy protocols do:
a digest is a map *origin node id → versioned entry*, where an entry is
a self-contained snapshot of one origin's bank (cloned counters + exact
shadow counts) stamped with a monotone per-origin version.  Merging two
digests keeps, per origin, the entry with the larger version — never a
sum — so each origin's traffic is represented exactly once no matter how
many times its entry is forwarded.  A node's read then tree-merges the
per-origin entries (:func:`~repro.cluster.aggregator.fold_banks`, the
same fold the central aggregator uses), and Remark 2.4 makes that merge
distribution-exact.

Staleness is therefore *bounded and repairable*: a digest may lag the
live banks (by at most the traffic since each origin's last refresh —
:meth:`GossipNetwork.max_staleness` measures it), but it is never
*wrong* about what it covers, and push-pull rounds spread the newest
entries epidemically — every entry reaches every node in ``O(log n)``
rounds with high probability, which :meth:`GossipNetwork.converge`
counts.

Determinism
-----------
Peer selection is driven by a dedicated RNG derived from
``(cluster seed, round index)`` — independent of the node counters'
streams and of wall clock — and nodes act in sorted-id order, so a
gossip run is a pure function of its config seed, exactly like every
other cluster feature.  Crash recovery composes the same way: a
recovered node's digest entry is rebuilt from its recovered bank (which
is checkpoint + WAL replay), its learned entries are volatile and lost,
and subsequent anti-entropy rounds repair the staleness.

>>> from repro.cluster.node import CounterTemplate, IngestNode
>>> from repro.stream.workload import KeyedEvent
>>> nodes = {
...     node_id: IngestNode(node_id, CounterTemplate("exact"), seed=node_id)
...     for node_id in (0, 1)
... }
>>> nodes[0].submit(KeyedEvent("a", 3))
>>> nodes[1].submit(KeyedEvent("a", 4))
>>> network = GossipNetwork(seed=7, fanout=1)
>>> for node_id in nodes:
...     network.add_node(node_id)
>>> rounds = network.converge(nodes)
>>> network.node_view(0, fanout=2).estimate("a")
7.0
>>> network.node_view(0, fanout=2).truth == {"a": 7}
True
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.cluster.aggregator import FoldMemo, GlobalView, fold_banks
from repro.cluster.node import IngestNode
from repro.core.base import ApproximateCounter
from repro.core.merge import merge_all
from repro.errors import ParameterError, StateError
from repro.rng.bitstream import BitBudgetedRandom
from repro.rng.splitmix import derive_seed

__all__ = [
    "AGGREGATION_MODES",
    "DigestEntry",
    "NodeDigest",
    "GossipNetwork",
]

#: Read-path registry for configs and CLI flags: the central merge tree
#: or the decentralized gossip digests on top of it.
AGGREGATION_MODES: tuple[str, ...] = ("tree", "gossip")

_GOSSIP_SEED_KEY = 0x676F7373  # "goss"


@dataclass(frozen=True)
class DigestEntry:
    """One origin's self-contained contribution, as some node knows it.

    Attributes
    ----------
    origin:
        The node id whose bank this entry snapshots.
    version:
        Monotone per-origin stamp assigned at capture; digest merges
        keep the larger version, never a sum, so forwarding an entry
        through many hops can never double-count.
    events:
        The origin's lifetime ``events_ingested`` at capture — what
        :meth:`GossipNetwork.max_staleness` measures lag against.
    epoch:
        Router topology epoch at capture (the "epoch-stamped" part of
        the digest: consumers can tell which topology generation made
        each entry).
    window:
        Retention window the origin was counting at capture.
    counters:
        Cloned per-key counters (never aliases of live bank state).
    stamps:
        The origin bank's change stamp for each key at capture
        (:attr:`~repro.analytics.counter_bank.CounterBank.stamps`): the
        next capture reuses every clone whose stamp has not moved, and
        :meth:`NodeDigest.view` keys its fold memo on them.
    truth:
        The origin's exact shadow counts (``None`` when its bank does
        not track truth).
    round:
        Lifetime gossip-round index at capture — the failure detector's
        staleness clock (:mod:`repro.cluster.membership`): an entry
        whose stamp stops advancing is evidence its origin stopped
        refreshing.
    """

    origin: int
    version: int
    events: int
    epoch: int
    window: int
    counters: Mapping[str, ApproximateCounter]
    stamps: Mapping[str, int]
    truth: Mapping[str, int] | None
    round: int = 0

    @classmethod
    def capture(
        cls,
        node: IngestNode,
        version: int,
        epoch: int = 0,
        window: int = 0,
        round: int = 0,
        previous: "DigestEntry | None" = None,
    ) -> "DigestEntry":
        """Snapshot one node's flushed bank into a digest entry.

        The node is flushed first (so the entry covers every accepted
        event) and every counter is cloned via
        :func:`~repro.core.merge.merge_all` — cloning splits a child
        RNG stream off the counter's source without consuming it, so a
        capture never perturbs the node's future coin flips.  A key
        whose stamp still equals its stamp in ``previous`` (the node's
        last entry) shares that entry's clone instead: equal stamps mean
        the same counter state, and entries are immutable, so the shared
        clone is exactly the one a fresh capture would build.
        """
        node.flush()
        bank = node.bank
        stamps = dict(bank.stamps)
        known = previous.stamps if previous is not None else {}
        reusable = previous.counters if previous is not None else {}
        counters = {
            key: (
                reusable[key]
                if known.get(key) == stamps[key]
                else merge_all([counter])
            )
            for key, counter in sorted(bank.items())
        }
        truths = bank.truths
        truth = (
            {key: truths.get(key, 0) for key in counters}
            if truths is not None
            else None
        )
        return cls(
            origin=node.node_id,
            version=version,
            events=node.events_ingested,
            epoch=epoch,
            window=window,
            counters=counters,
            stamps=stamps,
            truth=truth,
            round=round,
        )


class NodeDigest:
    """One node's partial knowledge of the whole cluster.

    A mapping ``origin id → newest-known`` :class:`DigestEntry`.  The
    digest is volatile coordinator-side state (like the router's hot-key
    cursors): a crash wipes it, and recovery rebuilds the node's own
    entry from its recovered bank while anti-entropy rounds re-learn the
    rest.
    """

    def __init__(self, node_id: int) -> None:
        if node_id < 0:
            raise ParameterError(f"node_id must be >= 0, got {node_id}")
        self._node_id = node_id
        self._entries: dict[int, DigestEntry] = {}
        self._memo = FoldMemo()

    @property
    def node_id(self) -> int:
        """The node this digest belongs to."""
        return self._node_id

    @property
    def origins(self) -> tuple[int, ...]:
        """Origin ids this digest currently holds an entry for, sorted."""
        return tuple(sorted(self._entries))

    def entry(self, origin: int) -> DigestEntry | None:
        """The newest-known entry for ``origin`` (``None`` if unknown)."""
        return self._entries.get(origin)

    def merge_entry(self, entry: DigestEntry) -> bool:
        """Adopt ``entry`` if it is newer than what the digest holds.

        Returns whether the digest changed.  Entries are immutable
        snapshots, so adoption shares the object — no copying, exactly
        like forwarding a message.
        """
        known = self._entries.get(entry.origin)
        if known is not None and known.version >= entry.version:
            return False
        self._entries[entry.origin] = entry
        return True

    def merge_digest(self, other: "NodeDigest") -> int:
        """Adopt every newer entry from ``other``; returns adoptions."""
        return sum(
            self.merge_entry(entry)
            for _, entry in sorted(other._entries.items())
        )

    def drop_origin(self, origin: int) -> None:
        """Forget a retired origin (its keys migrated to survivors)."""
        self._entries.pop(origin, None)

    def clear(self) -> None:
        """Wipe the digest (a crash destroyed the node's volatile state)."""
        self._entries.clear()

    def view(self, fanout: int = 2) -> GlobalView:
        """This node's local read: tree-merge the per-origin entries.

        The fold is :func:`~repro.cluster.aggregator.fold_banks` over
        entries in sorted-origin order — the same shape the central
        aggregator uses — so on ``exact`` templates a complete digest's
        view equals :meth:`~repro.cluster.aggregator.MergeTreeAggregator.
        global_view` bit for bit.  Truth is reported only when every
        held entry carries it; the view's ``epoch`` is the newest entry
        epoch (0 for an empty digest).  Keys whose entry stamps are
        unchanged since the digest's last view reuse that view's merged
        counters (:class:`~repro.cluster.aggregator.FoldMemo`).
        """
        entries = [self._entries[origin] for origin in self.origins]
        return fold_banks(
            [
                (entry.counters, entry.stamps, entry.truth)
                for entry in entries
            ],
            fanout,
            max((entry.epoch for entry in entries), default=0),
            self._memo,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"NodeDigest(node={self._node_id}, "
            f"origins={list(self.origins)})"
        )


def _randbelow(rng: BitBudgetedRandom, n: int) -> int:
    """Uniform integer in ``[0, n)`` by rejection sampling (no bias)."""
    if n <= 1:
        return 0
    bits = (n - 1).bit_length()
    while True:
        value = rng.getbits(bits)
        if value < n:
            return value


class GossipNetwork:
    """The coordinator's view of every node's digest, plus the rounds.

    The simulation owns one network per gossip-enabled cluster and
    drives it at exact stream positions (``ClusterConfig.gossip_every``)
    — gossip rounds are deterministic event-stream entries, fenced
    through the execution plan's drain handshake exactly like retention
    boundaries, so serial and parallel runs gossip at identical states.

    Parameters
    ----------
    seed:
        Cluster seed; peer selection derives from ``(seed, round)``
        only, independent of the counters' RNG streams.
    fanout:
        Peers each node exchanges with per round (push-pull: both sides
        adopt the other's newer entries).
    """

    def __init__(
        self, seed: int, fanout: int = 1, registry: Any = None
    ) -> None:
        if fanout < 1:
            raise ParameterError(f"fanout must be >= 1, got {fanout}")
        self._seed = seed
        self._fanout = fanout
        self._digests: dict[int, NodeDigest] = {}
        #: origin id -> latest issued version; never forgets retired
        #: ids, so a re-added id can never lose to a stale entry.
        self._versions: dict[int, int] = {}
        #: origin id -> round index of its latest refresh (0 = never);
        #: the detector's fallback clock for origins a digest has not
        #: learned an entry for yet.
        self._refresh_rounds: dict[int, int] = {}
        self._rounds = 0
        #: optional :class:`~repro.obs.MetricsRegistry` publishing round
        #: and digest-adoption counters (per-round cost, never per-event).
        self._registry = registry
        #: optional :class:`~repro.cluster.membership.FailureDetector`
        #: driven from every refreshing round (see :meth:`attach_detector`).
        self._detector: Any = None

    @property
    def fanout(self) -> int:
        """Peers contacted per node per round."""
        return self._fanout

    @property
    def rounds(self) -> int:
        """Lifetime push-pull rounds run (scheduled + convergence)."""
        return self._rounds

    @property
    def node_ids(self) -> tuple[int, ...]:
        """Participating node ids, sorted."""
        return tuple(sorted(self._digests))

    def digest(self, node_id: int) -> NodeDigest:
        """One node's digest (live reference, for white-box assertions)."""
        try:
            return self._digests[node_id]
        except KeyError:
            raise ParameterError(
                f"node {node_id} does not participate in gossip "
                f"(participants: {list(self.node_ids)})"
            ) from None

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def attach_detector(self, detector: Any) -> None:
        """Drive a failure detector from every refreshing round.

        The detector (:class:`~repro.cluster.membership.FailureDetector`)
        gets a view for every current and future participant, a
        staleness assessment at the top of each refreshing round, and a
        piggybacked suspicion merge on every digest exchange.
        Anti-entropy rounds (``refresh=False``) carry frozen content
        whose stamps do not advance, so they run no detection.
        """
        self._detector = detector
        for node_id in self.node_ids:
            detector.add_node(node_id)

    def add_node(self, node_id: int) -> None:
        """Start gossiping with a (new) node; its digest starts empty."""
        if node_id in self._digests:
            raise ParameterError(
                f"node {node_id} already participates in gossip"
            )
        self._digests[node_id] = NodeDigest(node_id)
        self._versions.setdefault(node_id, 0)
        if self._detector is not None:
            self._detector.add_node(node_id)

    def remove_node(self, node_id: int) -> None:
        """Retire a node: drop its digest and purge its origin entries.

        The retiring node's keys migrated to the survivors before the
        removal (see :mod:`repro.cluster.rebalance`), so keeping its
        entry anywhere would double-count that traffic forever.  The
        simulation drives membership centrally (as it already does for
        the router and aggregator), so the purge is immediate; a fully
        decentralized deployment would use tombstoned entries instead.
        """
        self.digest(node_id)
        del self._digests[node_id]
        for digest in self._digests.values():
            digest.drop_origin(node_id)
        if self._detector is not None:
            self._detector.remove_node(node_id)

    def reset_node(self, node_id: int) -> None:
        """A crash wiped the node's volatile state, digest included."""
        self.digest(node_id).clear()
        if self._detector is not None:
            self._detector.reset_node(node_id)

    # ------------------------------------------------------------------
    # rounds
    # ------------------------------------------------------------------
    def refresh(
        self,
        node: IngestNode,
        epoch: int = 0,
        window: int = 0,
    ) -> DigestEntry:
        """Re-capture one node's own entry at a bumped version.

        This is also the crash-recovery hook: after checkpoint restore +
        WAL replay rebuilt the bank, refreshing rebuilds the digest
        entry from it — the entry's version keeps counting up (the
        coordinator's version table survives the node's crash), so
        peers holding the pre-crash entry adopt the rebuilt one.
        """
        digest = self.digest(node.node_id)
        self._versions[node.node_id] = (
            self._versions.get(node.node_id, 0) + 1
        )
        self._refresh_rounds[node.node_id] = self._rounds
        entry = DigestEntry.capture(
            node,
            version=self._versions[node.node_id],
            epoch=epoch,
            window=window,
            round=self._rounds,
            previous=digest.entry(node.node_id),
        )
        digest.merge_entry(entry)
        return entry

    def last_refresh_round(self, origin: int) -> int:
        """Round index of the origin's latest refresh (0 = never)."""
        return self._refresh_rounds.get(origin, 0)

    def run_round(
        self,
        nodes: Mapping[int, IngestNode],
        epoch: int = 0,
        window: int = 0,
        refresh: bool = True,
    ) -> int:
        """One push-pull round; returns the lifetime round index.

        Each participating node (sorted order) refreshes its own entry,
        then exchanges digests with ``fanout`` seeded-random peers —
        both sides adopt the other's newer entries.  Within a round
        later exchanges see earlier adoptions (epidemic relay), which
        is what makes convergence logarithmic.

        Participants are the ids in ``nodes``: a known node missing
        from the mapping is *dead* — its entry neither refreshes nor
        exchanges, so its round stamp goes stale at every peer, which
        is exactly what an attached failure detector feeds on.
        """
        self._rounds += 1
        rng = BitBudgetedRandom(
            derive_seed(self._seed, _GOSSIP_SEED_KEY, self._rounds)
        )
        participants = [nid for nid in self.node_ids if nid in nodes]
        detecting = refresh and self._detector is not None
        if refresh:
            for node_id in participants:
                self.refresh(nodes[node_id], epoch=epoch, window=window)
        if detecting:
            self._detector.begin_round(self, participants)
        adoptions = 0
        for node_id in participants:
            others = [peer for peer in participants if peer != node_id]
            for _ in range(min(self._fanout, len(others))):
                peer = others.pop(_randbelow(rng, len(others)))
                mine = self._digests[node_id]
                theirs = self._digests[peer]
                adoptions += mine.merge_digest(theirs)   # pull
                adoptions += theirs.merge_digest(mine)   # push
                if detecting:
                    self._detector.observe_exchange(self, node_id, peer)
        if self._registry is not None:
            self._registry.inc("gossip_rounds_total")
            self._registry.inc("gossip_digest_adoptions_total", adoptions)
        return self._rounds

    # ------------------------------------------------------------------
    # convergence and staleness
    # ------------------------------------------------------------------
    def converged(self) -> bool:
        """Whether every digest holds every origin's newest entry."""
        for digest in self._digests.values():
            for origin in self._digests:
                entry = digest.entry(origin)
                if entry is None or entry.version < self._versions[origin]:
                    return False
        return True

    def converge(
        self,
        nodes: Mapping[int, IngestNode],
        epoch: int = 0,
        window: int = 0,
        max_rounds: int | None = None,
    ) -> int:
        """Anti-entropy to a fixed point; returns the rounds it took.

        Every node's own entry is refreshed once (the final state),
        then exchange-only rounds run until every digest is complete.
        Termination is guaranteed: content is frozen, versions stop
        moving, and each round strictly grows somebody's digest with
        probability 1 — ``max_rounds`` (default ``4·n + 16``) is a
        loud backstop, not a tuning knob.
        """
        for node_id in self.node_ids:
            self.refresh(nodes[node_id], epoch=epoch, window=window)
        limit = (
            max_rounds
            if max_rounds is not None
            else 4 * len(self._digests) + 16
        )
        rounds = 0
        while not self.converged():
            if rounds >= limit:
                raise StateError(
                    f"gossip failed to converge within {limit} rounds "
                    f"(fanout {self._fanout}, "
                    f"{len(self._digests)} nodes)"
                )
            self.run_round(nodes, epoch=epoch, window=window, refresh=False)
            rounds += 1
        return rounds

    def node_view(self, node_id: int, fanout: int = 2) -> GlobalView:
        """One node's local read (see :meth:`NodeDigest.view`)."""
        return self.digest(node_id).view(fanout)

    def digest_staleness(
        self, node_id: int, nodes: Mapping[int, IngestNode]
    ) -> int:
        """Events one node's digest lags the live banks (pure read).

        The sum over live origins of the events the origin has ingested
        beyond what this node's digest entry covers (an unknown origin
        counts in full).  This is the honesty stamp a *replica* read
        reports (:class:`~repro.cluster.query.ClusterReader`): the
        answer may be missing at most this many delivered events.
        Reading it touches no node state — no flush, no RNG.
        """
        digest = self.digest(node_id)
        lag = 0
        for origin, node in sorted(nodes.items()):
            entry = digest.entry(origin)
            covered = entry.events if entry is not None else 0
            lag += max(node.events_ingested - covered, 0)
        return lag

    def read_stamp(self, node_id: int) -> tuple[tuple[int, ...], ...]:
        """Version/epoch stamp of one node's digest (pure read).

        Changes exactly when a replica read from this node could change:
        an entry is adopted at a higher version, an origin appears or is
        purged, or an entry carries a new topology epoch / retention
        window.  The query layer's per-template read cache keys its
        validity on this stamp.
        """
        digest = self.digest(node_id)
        stamp = []
        for origin in digest.origins:
            entry = digest.entry(origin)
            assert entry is not None  # origins only lists held entries
            stamp.append(
                (origin, entry.version, entry.epoch, entry.window)
            )
        return tuple(stamp)

    def max_staleness(self, nodes: Mapping[int, IngestNode]) -> int:
        """Worst per-node lag behind the live banks, in events.

        The max of :meth:`digest_staleness` over every participant.
        This is the "stale but bounded" guarantee made measurable — it
        can only grow with traffic since the last round, never with
        cluster age.
        """
        return max(
            (
                self.digest_staleness(node_id, nodes)
                for node_id in self.node_ids
            ),
            default=0,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"GossipNetwork(nodes={list(self.node_ids)}, "
            f"fanout={self._fanout}, rounds={self._rounds})"
        )
