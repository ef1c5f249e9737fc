"""Keyed workload generators for the many-counter analytics system.

The paper's practical motivation (§1) is an analytics system maintaining
one approximate counter per key — "the number of visits to each page on
Wikipedia".  These generators produce keyed event streams with the shapes
such systems see:

* :func:`zipf_workload` — heavy-tailed popularity (the realistic case; a
  few pages get most of the traffic, a long tail gets single digits).
* :func:`uniform_workload` — every key equally likely (stress for the
  "δ must shrink with the number of counters" argument of §1).
* :func:`burst_workload` — one key suddenly hot (tests that counters track
  rapid growth).
* :func:`weighted_zipf_workload` — Zipf popularity with *weighted* events
  (``count > 1``), the shape of a pre-aggregated replication feed; the
  heavy-count stream the skip-ahead ingest path is measured on.

Events are generated lazily; a workload is an iterator of
:class:`KeyedEvent` so banks of millions of events stream in O(1) memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from repro.errors import ParameterError
from repro.rng.bitstream import BitBudgetedRandom

__all__ = [
    "KeyedEvent",
    "zipf_workload",
    "uniform_workload",
    "burst_workload",
    "weighted_zipf_workload",
]


@dataclass(frozen=True, slots=True)
class KeyedEvent:
    """``count`` increments for one key (``count=1`` is a plain event).

    Weighted events let pre-aggregated streams — an upstream buffer that
    coalesced per-key increments, or a batched replication feed — be
    expressed without expanding back into unit increments.
    """

    key: str
    count: int = 1

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ParameterError(
                f"event count must be non-negative, got {self.count}"
            )


def _key_name(index: int) -> str:
    return f"page-{index:06d}"


def zipf_workload(
    rng: BitBudgetedRandom,
    n_keys: int,
    n_events: int,
    exponent: float = 1.1,
) -> Iterator[KeyedEvent]:
    """Zipf(``exponent``) popularity over ``n_keys`` keys.

    Sampling is by inverse CDF on the precomputed normalized weights,
    which keeps the generator exact (no rejection) and deterministic.
    """
    if n_keys < 1:
        raise ParameterError(f"n_keys must be >= 1, got {n_keys}")
    if n_events < 0:
        raise ParameterError(f"n_events must be >= 0, got {n_events}")
    if exponent <= 0.0:
        raise ParameterError(f"exponent must be positive, got {exponent}")
    weights = [1.0 / (rank ** exponent) for rank in range(1, n_keys + 1)]
    total = math.fsum(weights)
    cdf: list[float] = []
    running = 0.0
    for w in weights:
        running += w / total
        cdf.append(running)
    cdf[-1] = 1.0
    for _ in range(n_events):
        u = rng.uniform53()
        # Binary search the CDF.
        lo, hi = 0, n_keys - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if u < cdf[mid]:
                hi = mid
            else:
                lo = mid + 1
        yield KeyedEvent(_key_name(lo))


def weighted_zipf_workload(
    rng: BitBudgetedRandom,
    n_keys: int,
    n_events: int,
    exponent: float = 1.1,
    mean_count: int = 64,
) -> Iterator[KeyedEvent]:
    """Zipf popularity with weighted events: a pre-aggregated feed.

    Each event carries ``count`` increments drawn uniformly from
    ``[1, 2*mean_count - 1]`` (so the expected weight is ``mean_count``),
    modelling an upstream buffer or replication feed that already
    coalesced per-key increments.  Key popularity and weights come from
    independent :meth:`~repro.rng.bitstream.BitBudgetedRandom.split`
    streams of ``rng``, so the key sequence at a given seed matches
    :func:`zipf_workload` event for event.

    This is the heavy-count workload skip-ahead is measured on: per-unit
    ingestion pays ``count`` coin flips per event, skip-ahead pays O(1)
    expected draws.
    """
    if mean_count < 1:
        raise ParameterError(
            f"mean_count must be >= 1, got {mean_count}"
        )
    count_rng = rng.split(0x77656967, mean_count)  # "weig"
    span = 2 * mean_count - 1
    for event in zipf_workload(rng, n_keys, n_events, exponent):
        yield KeyedEvent(event.key, 1 + count_rng.randint_below(span))


def uniform_workload(
    rng: BitBudgetedRandom, n_keys: int, n_events: int
) -> Iterator[KeyedEvent]:
    """Every key equally likely."""
    if n_keys < 1:
        raise ParameterError(f"n_keys must be >= 1, got {n_keys}")
    if n_events < 0:
        raise ParameterError(f"n_events must be >= 0, got {n_events}")
    for _ in range(n_events):
        yield KeyedEvent(_key_name(rng.randint_below(n_keys)))


def burst_workload(
    rng: BitBudgetedRandom,
    n_keys: int,
    n_events: int,
    hot_key_index: int = 0,
    hot_fraction: float = 0.5,
) -> Iterator[KeyedEvent]:
    """One hot key receiving a ``hot_fraction`` share, rest uniform."""
    if n_keys < 1:
        raise ParameterError(f"n_keys must be >= 1, got {n_keys}")
    if not 0 <= hot_key_index < n_keys:
        raise ParameterError(
            f"hot_key_index {hot_key_index} out of range for {n_keys} keys"
        )
    if not 0.0 <= hot_fraction <= 1.0:
        raise ParameterError(
            f"hot_fraction must be in [0, 1], got {hot_fraction}"
        )
    for _ in range(n_events):
        if rng.bernoulli(hot_fraction):
            yield KeyedEvent(_key_name(hot_key_index))
        else:
            yield KeyedEvent(_key_name(rng.randint_below(n_keys)))
