"""A bank of keyed approximate counters.

The bank instantiates one approximate counter per key, lazily, from a
*template factory*.  Each counter gets an independent random stream derived
from the bank seed and the key (via
:meth:`~repro.rng.bitstream.BitBudgetedRandom.split`), so the bank is fully
deterministic yet streams are unrelated across keys.

For evaluation the bank optionally keeps exact shadow counts (the "ground
truth" the analytics system itself would not have room for); shadow counts
are bookkeeping, never part of the reported memory.

Every mutator also stamps the keys it touched (:attr:`CounterBank.stamps`)
with a value drawn from one process-wide monotone clock.  No two banks
ever receive the same value, so an unchanged stamp means "same bank, same
counter state": the cluster's read path reuses clones and merges of every
key whose stamp has not moved since its last fold.
"""

from __future__ import annotations

import heapq
import itertools
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping

from repro.analytics.report import BankErrorReport, KeyError_
from repro.core.base import ApproximateCounter
from repro.errors import ParameterError
from repro.memory.model import SpaceModel
from repro.rng.bitstream import BitBudgetedRandom
from repro.stream.workload import KeyedEvent

__all__ = ["CounterBank", "stable_key_hash"]

#: The process-wide change clock every bank stamps its mutations from.
_CLOCK = itertools.count(1)

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def stable_key_hash(key: str) -> int:
    """64-bit FNV-1a over the key's UTF-8 bytes.

    Python's built-in ``hash`` is salted per process, which would make
    per-key random streams (and cluster key routing) differ between runs;
    this one is stable.
    """
    h = _FNV_OFFSET
    for byte in key.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & ((1 << 64) - 1)
    return h


class CounterBank:
    """Keyed approximate counters built from a template factory.

    Parameters
    ----------
    factory:
        Callable receiving a per-key random source and returning a fresh
        counter, e.g.
        ``lambda rng: NelsonYuCounter(0.1, 20, rng=rng)``.
    seed:
        Bank seed; per-key streams derive from it.
    track_truth:
        Keep exact shadow counts for error reporting (default True).
    """

    def __init__(
        self,
        factory: Callable[[BitBudgetedRandom], ApproximateCounter],
        seed: int = 0,
        track_truth: bool = True,
    ) -> None:
        self._factory = factory
        self._root = BitBudgetedRandom(seed)
        self._track_truth = track_truth
        self._counters: dict[str, ApproximateCounter] = {}
        self._truth: dict[str, int] = {}
        self._stamps: dict[str, int] = {}

    # ------------------------------------------------------------------
    # ingest
    # ------------------------------------------------------------------
    def _counter_for(self, key: str) -> ApproximateCounter:
        counter = self._counters.get(key)
        if counter is None:
            key_rng = self._root.split(stable_key_hash(key), len(key))
            counter = self._factory(key_rng)
            self._counters[key] = counter
        return counter

    def record(self, key: str, count: int = 1) -> None:
        """Record ``count`` events for ``key``.

        A zero count is a no-op: it does not materialize a counter, so
        no-op events never inflate key counts or state-bit accounting
        (use :meth:`materialize` to create a counter at count 0).
        """
        if count < 0:
            raise ParameterError(f"count must be non-negative, got {count}")
        if count == 0:
            return
        counter = self._counter_for(key)
        self._stamps[key] = next(_CLOCK)
        counter.add(count)
        if self._track_truth:
            self._truth[key] = self._truth.get(key, 0) + count

    def consume(self, events: Iterable[KeyedEvent]) -> int:
        """Ingest a keyed event stream; returns the increments applied.

        Each event contributes ``event.count`` increments (1 for plain
        events), so coalesced/batched streams are ingested faithfully.
        """
        n = 0
        for event in events:
            self.record(event.key, event.count)
            n += event.count
        return n

    def consume_counts(self, items: Iterable[tuple[str, int]]) -> int:
        """Apply coalesced ``(key, count)`` pairs in one flattened pass.

        Bit-identical to calling :meth:`record` once per pair in the
        given order — this is the hot path a node's coalescing buffer
        flushes through, with the per-pair method dispatch and truth
        bookkeeping hoisted out of the loop.  Returns the increments
        applied.
        """
        counters = self._counters
        counter_for = self._counter_for
        truth = self._truth if self._track_truth else None
        truth_get = truth.get if truth is not None else None
        stamps = self._stamps
        stamp = next(_CLOCK)
        total = 0
        for key, count in items:
            if count < 0:
                raise ParameterError(
                    f"count must be non-negative, got {count}"
                )
            if count == 0:
                continue
            counter = counters.get(key)
            if counter is None:
                counter = counter_for(key)
            stamps[key] = stamp
            counter.add(count)
            if truth is not None:
                truth[key] = truth_get(key, 0) + count
            total += count
        return total

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def seed(self) -> int:
        """The bank seed (per-key streams derive from it)."""
        return self._root.seed

    @property
    def tracks_truth(self) -> bool:
        """Whether exact shadow counts are kept."""
        return self._track_truth

    @property
    def truths(self) -> Mapping[str, int] | None:
        """Read-only ``key -> exact count`` (``None`` when untracked)."""
        return MappingProxyType(self._truth) if self._track_truth else None

    @property
    def stamps(self) -> Mapping[str, int]:
        """Read-only ``key -> change stamp`` for every tracked key.

        A key's stamp moves whenever a mutator (:meth:`record`,
        :meth:`consume_counts`, :meth:`materialize`) touches its counter,
        and it is drawn from a process-wide clock — so two equal stamps
        always name the same bank's counter in the same state, and a bank
        rebuilt by recovery or a window reset can never match a stamp of
        the bank it replaced.
        """
        return MappingProxyType(self._stamps)

    def __len__(self) -> int:
        return len(self._counters)

    def __contains__(self, key: str) -> bool:
        return key in self._counters

    def keys(self) -> Iterator[str]:
        """Iterate over tracked keys."""
        return iter(self._counters)

    @property
    def counters(self) -> Mapping[str, ApproximateCounter]:
        """Read-only ``key -> counter`` (live references)."""
        return MappingProxyType(self._counters)

    def items(self) -> Iterator[tuple[str, ApproximateCounter]]:
        """Iterate over ``(key, counter)`` pairs (live references)."""
        return iter(self._counters.items())

    def counter(self, key: str) -> ApproximateCounter | None:
        """The live counter for ``key``, or ``None`` if unseen."""
        return self._counters.get(key)

    def remove(self, key: str) -> tuple[ApproximateCounter, int | None] | None:
        """Evict ``key`` from the bank, returning its state for transfer.

        Returns ``(counter, truth)`` — the live counter plus its exact
        shadow count (``None`` when truth is untracked) — or ``None`` if
        the key was never materialized.  The cluster's rebalancer drains
        migrating keys through this so a key's state lives on exactly one
        owner at a time.

        >>> from repro.core.factory import make_counter
        >>> bank = CounterBank(lambda rng: make_counter("exact", rng=rng))
        >>> bank.record("k", 3)
        >>> counter, truth = bank.remove("k")
        >>> (counter.estimate(), truth, "k" in bank)
        (3.0, 3, False)
        >>> bank.remove("never-seen") is None
        True
        """
        counter = self._counters.pop(key, None)
        if counter is None:
            return None
        del self._stamps[key]
        truth = self._truth.pop(key, 0) if self._track_truth else None
        return counter, truth

    def materialize(self, key: str) -> ApproximateCounter:
        """The counter for ``key``, creating it (at count 0) if unseen.

        The created counter gets the same derived random stream it would
        have received from :meth:`record`, so materializing a key before
        restoring a snapshot onto it (checkpoint recovery) reproduces the
        bank a straight run would have built.  The key's stamp moves, since
        every caller mutates the returned counter (restore, migration
        merge).
        """
        counter = self._counter_for(key)
        self._stamps[key] = next(_CLOCK)
        return counter

    def estimate(self, key: str) -> float:
        """Estimated count for ``key`` (0 for unseen keys)."""
        counter = self._counters.get(key)
        return counter.estimate() if counter is not None else 0.0

    def truth(self, key: str) -> int:
        """Exact count for ``key`` (requires ``track_truth=True``)."""
        if not self._track_truth:
            raise ParameterError("bank was built with track_truth=False")
        return self._truth.get(key, 0)

    def set_truth(self, key: str, count: int) -> None:
        """Install an exact shadow count (checkpoint restore only).

        Regular ingestion must go through :meth:`record`; this exists so a
        restored bank carries the shadow counts its checkpoint recorded.
        """
        if not self._track_truth:
            raise ParameterError("bank was built with track_truth=False")
        if count < 0:
            raise ParameterError(f"count must be non-negative, got {count}")
        self._truth[key] = count

    def top_keys(self, k: int) -> list[tuple[str, float]]:
        """The ``k`` keys with the largest estimates, descending.

        ``heapq`` keeps this O(n log k), so top-k over millions of keys
        does not pay for a full sort.
        """
        if k < 0:
            raise ParameterError(f"k must be non-negative, got {k}")
        return heapq.nsmallest(
            k,
            ((key, c.estimate()) for key, c in self._counters.items()),
            key=lambda pair: (-pair[1], pair[0]),
        )

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def total_state_bits(
        self, model: SpaceModel = SpaceModel.AUTOMATON
    ) -> int:
        """Total approximate-counter memory across the bank, in bits."""
        return sum(c.state_bits(model) for c in self._counters.values())

    def total_exact_bits(self) -> int:
        """Memory an exact-counter bank would need for the same keys."""
        if not self._track_truth:
            raise ParameterError("bank was built with track_truth=False")
        return sum(max(1, v.bit_length()) for v in self._truth.values())

    def error_report(self) -> BankErrorReport:
        """Aggregate per-key error statistics (requires shadow counts)."""
        if not self._track_truth:
            raise ParameterError("bank was built with track_truth=False")
        entries = [
            KeyError_(
                key=key,
                truth=self._truth.get(key, 0),
                estimate=counter.estimate(),
            )
            for key, counter in self._counters.items()
        ]
        return BankErrorReport.from_entries(
            entries, total_state_bits=self.total_state_bits()
        )
