"""Ingest nodes: the per-machine write path of the counting cluster.

An :class:`IngestNode` owns one :class:`~repro.analytics.counter_bank.
CounterBank` plus a *write buffer* in front of it.  The buffer coalesces
per-key increments (a hot key hit 10,000 times between flushes becomes one
``record(key, 10_000)`` call) and flushes in batches, so the expensive
counter updates run through the distribution-exact ``add`` fast-forward
instead of one transition per raw event.  This is the same batching real
ingest tiers do to survive heavy traffic, and here it is also the main
single-node throughput lever.

Because a node may crash, its bank can be captured into a
:class:`~repro.cluster.checkpoint.BankCheckpoint` and rebuilt from it; the
buffer is volatile by design (the simulation redelivers unacknowledged
events from the node's :class:`~repro.cluster.storage.SegmentedLog` on
recovery — see :mod:`repro.cluster.storage` for where checkpoints and
the durable log live).

Counters are described by a :class:`CounterTemplate` — a serializable
(algorithm name, parameters) pair — rather than a bare factory closure, so
checkpoints can record how to rebuild every counter they contain.

Threading contract
------------------
An :class:`IngestNode` is **thread-confined, not thread-safe**: at any
moment at most one thread may touch it.  The parallel ingest pipeline
(:mod:`repro.cluster.pipeline`) honors this by chaining each node's
delivery batches onto one worker at a time and *draining* the node —
no batch in flight — before the coordinator flushes, checkpoints,
drains, or crash-recovers it (the drain handshake).  Nodes share no
state with each other, so confinement alone makes worker-sharded
delivery safe without any locking on this hot path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from repro.analytics.counter_bank import CounterBank
from repro.core.base import ApproximateCounter, CounterSnapshot
from repro.core.factory import COUNTER_TYPES
from repro.errors import ParameterError
from repro.memory.model import SpaceModel
from repro.rng.bitstream import BitBudgetedRandom
from repro.rng.splitmix import derive_seed
from repro.stream.workload import KeyedEvent

__all__ = ["CounterTemplate", "IngestNode", "default_template"]

_WINDOW_SEED_KEY = 0x77696E64  # "wind"
#: The lifetime stats a checkpoint and a state transfer carry.
_LIFETIME_STATS = ("events_ingested", "events_coalesced", "n_flushes")


@dataclass(frozen=True)
class CounterTemplate:
    """A serializable recipe for one counter: algorithm name + parameters.

    Unlike a factory closure, a template survives a round-trip through a
    checkpoint, so a recovering node can rebuild counters identical in
    kind to the ones it lost.

    >>> template = CounterTemplate("exact")
    >>> CounterTemplate.from_dict(template.to_dict()) == template
    True
    >>> CounterTemplate("no-such-algorithm")
    Traceback (most recent call last):
        ...
    repro.errors.ParameterError: unknown algorithm 'no-such-algorithm'; \
known: csuros, exact, morris, morris_plus, nelson_yu, saturating, \
simplified_ny
    """

    algorithm: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.algorithm not in COUNTER_TYPES:
            known = ", ".join(sorted(COUNTER_TYPES))
            raise ParameterError(
                f"unknown algorithm {self.algorithm!r}; known: {known}"
            )
        object.__setattr__(self, "params", dict(self.params))

    def build(self, rng: BitBudgetedRandom) -> ApproximateCounter:
        """Instantiate one counter on the given random source."""
        return COUNTER_TYPES[self.algorithm](**self.params, rng=rng)

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe representation (inverse of :meth:`from_dict`)."""
        return {"algorithm": self.algorithm, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CounterTemplate":
        """Rebuild a template from :meth:`to_dict` output."""
        return cls(
            algorithm=data["algorithm"], params=dict(data.get("params", {}))
        )


def default_template(algorithm: str = "simplified_ny") -> CounterTemplate:
    """A sensible cluster template for each mergeable counter family.

    Cluster aggregation needs mergeable counters (Remark 2.4), so the
    NY-family presets enable ``mergeable=True``.

    >>> default_template("exact")
    CounterTemplate(algorithm='exact', params={})
    >>> default_template("simplified_ny").params["mergeable"]
    True
    """
    presets: dict[str, dict[str, Any]] = {
        "exact": {},
        "morris": {"a": 0.05},
        "morris_plus": {"a": 0.05},
        "simplified_ny": {"resolution": 1024, "mergeable": True},
        "nelson_yu": {
            "epsilon": 0.1,
            "delta_exponent": 10,
            "mergeable": True,
        },
    }
    if algorithm not in presets:
        known = ", ".join(sorted(presets))
        raise ParameterError(
            f"no cluster preset for {algorithm!r}; known: {known}"
        )
    return CounterTemplate(algorithm, presets[algorithm])


class IngestNode:
    """One cluster machine: a counter bank behind a coalescing write buffer.

    Parameters
    ----------
    node_id:
        Stable identifier used by the router and checkpoints.
    template:
        Counter recipe for the node's bank.
    seed:
        Bank seed (derive it from the cluster seed and ``node_id`` so
        nodes are independent but the deployment is reproducible).
    buffer_limit:
        Flush automatically once this many increments are buffered.
    track_truth:
        Keep exact shadow counts in the bank for evaluation.
    """

    def __init__(
        self,
        node_id: int,
        template: CounterTemplate,
        seed: int,
        buffer_limit: int = 512,
        track_truth: bool = True,
    ) -> None:
        if node_id < 0:
            raise ParameterError(f"node_id must be >= 0, got {node_id}")
        if buffer_limit < 1:
            raise ParameterError(
                f"buffer_limit must be >= 1, got {buffer_limit}"
            )
        self._node_id = node_id
        self._template = template
        self._buffer_limit = buffer_limit
        self._bank = CounterBank(
            template.build, seed=seed, track_truth=track_truth
        )
        self._buffer: dict[str, int] = {}
        self._buffered = 0
        # Lifetime stats (restored from checkpoints on recovery).
        self.events_ingested = 0
        self.events_coalesced = 0
        self.n_flushes = 0

    def init_params(self) -> dict[str, Any]:
        """The construction parameters, JSON-safe: the worker ``init``
        frame body (inverse of :meth:`from_init`).

        ``seed`` is the live bank's, so a node rebuilt from it carries
        the incarnation and window derivations the bank already took.
        """
        return {
            "node_id": self._node_id,
            "template": self._template.to_dict(),
            "seed": self._bank.seed,
            "buffer_limit": self._buffer_limit,
            "track_truth": self._bank.tracks_truth,
        }

    @classmethod
    def from_init(cls, body: Mapping[str, Any]) -> "IngestNode":
        """A fresh node built from :meth:`init_params` output."""
        return cls(
            int(body["node_id"]),
            CounterTemplate.from_dict(body["template"]),
            seed=int(body["seed"]),
            buffer_limit=int(body["buffer_limit"]),
            track_truth=bool(body["track_truth"]),
        )

    # ------------------------------------------------------------------
    # identity and introspection
    # ------------------------------------------------------------------
    @property
    def node_id(self) -> int:
        """This node's stable identifier."""
        return self._node_id

    @property
    def template(self) -> CounterTemplate:
        """The counter recipe used by this node's bank."""
        return self._template

    @property
    def bank(self) -> CounterBank:
        """The node's counter bank (flushed state only)."""
        return self._bank

    @property
    def buffer_limit(self) -> int:
        """Increments buffered before an automatic flush."""
        return self._buffer_limit

    @property
    def pending(self) -> int:
        """Increments sitting in the write buffer (not yet in the bank)."""
        return self._buffered

    # ------------------------------------------------------------------
    # write path (thread-confined: one thread per node at a time)
    # ------------------------------------------------------------------
    def submit(self, event: KeyedEvent) -> None:
        """Accept one event into the write buffer, flushing when full.

        ``events_coalesced`` counts events that merged into a key the
        buffer already held — the write amplification the coalescing
        buffer saves.  Like ``events_ingested`` it is a deterministic
        lifetime stat, persisted in checkpoints.
        """
        if event.count == 0:
            return
        buffered = self._buffer.get(event.key)
        if buffered is None:
            self._buffer[event.key] = event.count
        else:
            self._buffer[event.key] = buffered + event.count
            self.events_coalesced += 1
        self._buffered += event.count
        self.events_ingested += event.count
        if self._buffered >= self._buffer_limit:
            self.flush()

    def submit_all(self, events: Iterable[KeyedEvent]) -> int:
        """Accept a batch of events; returns the increments accepted."""
        before = self.events_ingested
        for event in events:
            self.submit(event)
        return self.events_ingested - before

    def submit_counts(self, pairs: Iterable[tuple[str, int]]) -> int:
        """Accept ``(key, count)`` pairs — :meth:`submit` without events.

        Bit-identical to submitting one :class:`KeyedEvent` per pair in
        the given order (same buffer state, same flush timing, same
        lifetime stats), with the per-event object construction and
        method dispatch flattened out.  This is the delivery-batch hot
        path of the process plan's workers.
        """
        buffer = self._buffer
        limit = self._buffer_limit
        before = self.events_ingested
        ingested = before
        coalesced = self.events_coalesced
        buffered = self._buffered
        for key, count in pairs:
            if count == 0:
                continue
            held = buffer.get(key)
            if held is None:
                buffer[key] = count
            else:
                buffer[key] = held + count
                coalesced += 1
            buffered += count
            ingested += count
            if buffered >= limit:
                self._buffered = buffered
                self.events_ingested = ingested
                self.events_coalesced = coalesced
                self.flush()
                buffered = 0
        self._buffered = buffered
        self.events_ingested = ingested
        self.events_coalesced = coalesced
        return ingested - before

    def flush(self) -> int:
        """Apply the coalesced buffer to the bank; returns increments.

        Keys are applied in sorted order so a flush is deterministic no
        matter what order events arrived in.  The flattened
        :meth:`~repro.analytics.counter_bank.CounterBank.consume_counts`
        pass is bit-identical to recording each key in that order.
        """
        if not self._buffer:
            return 0
        flushed = self._buffered
        self._bank.consume_counts(sorted(self._buffer.items()))
        self._buffer.clear()
        self._buffered = 0
        self.n_flushes += 1
        return flushed

    # ------------------------------------------------------------------
    # key migration (elastic scaling)
    # ------------------------------------------------------------------
    def drain(
        self, keys: Iterable[str]
    ) -> list[tuple[str, CounterSnapshot, int | None]]:
        """Flush, then evict ``keys``, returning their transfer records.

        Each record is ``(key, snapshot, truth)`` — the counter's
        serializable snapshot plus its exact shadow count (``None`` when
        the bank does not track truth) — sorted by key for determinism.
        Keys this node never materialized are silently skipped, so a
        rebalance plan may over-approximate.  After a drain the node no
        longer answers for those keys; the caller must deliver every
        record to the new owner (see
        :meth:`absorb` and :mod:`repro.cluster.rebalance`).

        >>> node = IngestNode(0, CounterTemplate("exact"), seed=1)
        >>> node.submit_all([KeyedEvent("a", 4), KeyedEvent("b", 2)])
        6
        >>> [(k, t) for k, _, t in node.drain(["a", "unseen"])]
        [('a', 4)]
        >>> node.estimate("a")
        0.0
        """
        self.flush()
        records: list[tuple[str, CounterSnapshot, int | None]] = []
        for key in sorted(set(keys)):
            removed = self._bank.remove(key)
            if removed is None:
                continue
            counter, truth = removed
            records.append((key, counter.snapshot(), truth))
        return records

    def absorb(
        self,
        key: str,
        counter: ApproximateCounter,
        truth: int | None = None,
    ) -> None:
        """Merge a migrated counter (and its truth) into this node's bank.

        The key's local counter is materialized (at count 0, on the
        bank's usual derived stream) if absent, then ``counter`` is
        merged in — distribution-exact by Remark 2.4, so migration costs
        nothing in accuracy.  ``truth`` (from the source's shadow
        counts) is added to the local shadow count when both sides track
        it; if the source did *not* track truth (``truth=None``) but
        this bank does, the migrated increments are unknowable and the
        local shadow count undercounts from here on — mixed-tracking
        clusters should treat error reports as approximate.

        >>> src = IngestNode(0, CounterTemplate("exact"), seed=1)
        >>> src.submit(KeyedEvent("a", 4))
        >>> dst = IngestNode(1, CounterTemplate("exact"), seed=2)
        >>> dst.submit(KeyedEvent("a", 1))
        >>> for k, snap, t in src.drain(["a"]):
        ...     from repro.core.factory import COUNTER_TYPES
        ...     moved = COUNTER_TYPES[snap.algorithm](**snap.params, seed=9)
        ...     moved.restore(snap)
        ...     dst.absorb(k, moved, truth=t)
        >>> dst.flush() and dst.estimate("a")
        5.0
        """
        target = self._bank.materialize(key)
        target.merge_from(counter)
        if truth is not None and self._bank.tracks_truth:
            self._bank.set_truth(key, self._bank.truth(key) + truth)

    def adopt_bank(self, bank: CounterBank) -> None:
        """Install a restored bank (crash recovery), dropping the buffer.

        The buffer is volatile by design — events that were only buffered
        at crash time must be redelivered by the caller's durable log.
        """
        self._buffer.clear()
        self._buffered = 0
        self._bank = bank

    # ------------------------------------------------------------------
    # volatile-state transfer (process deployment)
    # ------------------------------------------------------------------
    def export_volatile(self) -> dict[str, Any]:
        """The node's state a bank checkpoint does *not* carry, JSON-safe.

        A checkpoint captures the flushed bank; the coalescing buffer
        and the lifetime stats live outside it.  The process transport
        (:mod:`repro.cluster.transport`) ships both halves together —
        checkpoint line plus this document — so a coordinator mirror
        and a worker replica can exchange a node's exact state.

        >>> node = IngestNode(0, CounterTemplate("exact"), seed=1)
        >>> node.submit(KeyedEvent("a", 3))
        >>> node.export_volatile()["buffer"]
        {'a': 3}
        """
        return {
            "buffer": dict(self._buffer),
            "buffered": self._buffered,
            "stats": self.lifetime_stats(),
        }

    def install_volatile(self, state: Mapping[str, Any]) -> None:
        """Install an :meth:`export_volatile` document verbatim.

        Overwrites the buffer and lifetime stats; the caller pairs this
        with :meth:`adopt_bank` to transplant a node's full state.
        """
        buffer = state["buffer"]
        self._buffer = {str(key): int(count) for key, count in buffer.items()}
        self._buffered = int(state["buffered"])
        self.restore_lifetime_stats(state["stats"])

    def lifetime_stats(self) -> dict[str, int]:
        """``events_ingested``, ``events_coalesced`` and ``n_flushes``:
        what a checkpoint's meta and a state transfer carry."""
        return {name: getattr(self, name) for name in _LIFETIME_STATS}

    def restore_lifetime_stats(self, stats: Mapping[str, Any]) -> None:
        """Install :meth:`lifetime_stats` output; other keys are ignored
        and a missing stat reads as 0 (checkpoints from stores that
        predate the stats).

        >>> node = IngestNode(0, CounterTemplate("exact"), seed=1)
        >>> node.restore_lifetime_stats({"events_ingested": 5})
        >>> node.lifetime_stats()
        {'events_ingested': 5, 'events_coalesced': 0, 'n_flushes': 0}
        """
        for name in _LIFETIME_STATS:
            setattr(self, name, int(stats.get(name, 0)))

    def reset(self, window: int = 1) -> None:
        """Start a new counting window: drop the buffer, fresh empty bank.

        The new bank's seed derives from the old one and ``window``, so
        successive windows are deterministic yet use unrelated random
        streams (the same convention as
        :meth:`~repro.analytics.sharding.ShardedCounter.reset`).  Lifetime
        stats (``events_ingested``, ``events_coalesced``, ``n_flushes``)
        are preserved.
        """
        old = self._bank
        self._buffer.clear()
        self._buffered = 0
        self._bank = CounterBank(
            self._template.build,
            seed=derive_seed(old.seed, _WINDOW_SEED_KEY, window),
            track_truth=old.tracks_truth,
        )

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------
    def estimate(self, key: str) -> float:
        """Estimated count for ``key`` including buffered increments.

        The flushed estimate comes from the bank; buffered increments are
        added exactly (they have not gone through the counter yet, so no
        approximation has touched them).
        """
        return self._bank.estimate(key) + float(self._buffer.get(key, 0))

    def state_bits(self, model: SpaceModel = SpaceModel.AUTOMATON) -> int:
        """Approximate-counter memory held by this node, in bits."""
        return self._bank.total_state_bits(model)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"IngestNode(id={self._node_id}, keys={len(self._bank)}, "
            f"pending={self._buffered}, ingested={self.events_ingested})"
        )
