"""Workload definitions and the seeded input generator.

Every workload runs a 2-node cluster over 2000 keys with Zipf(1.1)
popularity.  The generator is the benchmark's own: it materializes the
events before any clock starts and returns the exact per-key totals the
correctness gate compares the cluster's ``GlobalView.truth`` against.
The program under test receives only the generated ``KeyedEvent`` list.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass, replace
from typing import Any

N_NODES = 2
CLUSTER_SEED = 0
N_KEYS = 2000
ZIPF_EXPONENT = 1.1
#: Hot keys the serving client reads, hottest first.
HOT_KEYS = tuple(f"page-{rank:06d}" for rank in range(10))


@dataclass(frozen=True)
class Stream:
    """A materialized event stream plus what the gate needs to check it."""

    events: list  # list[KeyedEvent]
    totals: dict[str, int]  # key -> sum of counts
    event_counts: dict[str, int]  # key -> number of events


def make_stream(events: list) -> Stream:
    totals: dict[str, int] = {}
    event_counts: dict[str, int] = {}
    for event in events:
        totals[event.key] = totals.get(event.key, 0) + event.count
        event_counts[event.key] = event_counts.get(event.key, 0) + 1
    return Stream(events, totals, event_counts)


def zipf_cdf(n_keys: int = N_KEYS, exponent: float = ZIPF_EXPONENT) -> list[float]:
    weights = [rank ** -exponent for rank in range(1, n_keys + 1)]
    total = sum(weights)
    cdf, running = [], 0.0
    for weight in weights:
        running += weight / total
        cdf.append(running)
    cdf[-1] = 1.0
    return cdf


def generate(seed: int, n_events: int, mean_count: int | None = None) -> Stream:
    """``n_events`` Zipf events; unit counts, or uniform on
    ``[1, 2*mean_count - 1]`` when ``mean_count`` is given."""
    from repro.stream.workload import KeyedEvent

    rng = random.Random(seed)
    cdf = zipf_cdf()
    span = None if mean_count is None else 2 * mean_count - 1
    events = []
    for _ in range(n_events):
        rank = bisect.bisect_right(cdf, rng.random())
        count = 1 if span is None else 1 + rng.randrange(span)
        events.append(KeyedEvent(f"page-{rank:06d}", count))
    return make_stream(events)


@dataclass(frozen=True)
class Workload:
    """One workload; ``BENCHMARK.json`` and ``README.md`` say why each
    was chosen."""

    name: str
    #: ``main`` phase: ``"ingest"`` (repeated fresh-cluster trials) or
    #: ``"serve"`` (repeated serving sessions).
    main: str
    template: str
    config: dict[str, Any]
    trial_events: int
    mean_count: int | None = None

    @property
    def durable(self) -> bool:
        """Keeps files, so each ingest trial also times ``recover_cluster``."""
        return self.config.get("storage") == "file"

    def cluster_config(self, storage_dir: str | None = None):
        """The ``ClusterConfig`` this workload runs.  Its seed (counter
        coins and routing salt) is fixed, so every run places the hot
        keys on the same nodes; ``--seed`` varies the event stream."""
        from repro.cluster import ClusterConfig, default_template

        kwargs = dict(self.config)
        if kwargs.get("storage") == "file":
            kwargs["storage_dir"] = storage_dir
        return ClusterConfig(
            n_nodes=N_NODES,
            template=default_template(self.template),
            seed=CLUSTER_SEED,
            **kwargs,
        )

    def stream(self, seed: int) -> Stream:
        return generate(seed, self.trial_events, self.mean_count)


#: Shape of one serving session: ``SLICES`` ``run()`` calls of
#: ``SLICE_EVENTS`` events, each followed by one replica and one
#: consistent HTTP read.  One session gives 100 samples per read class,
#: so each p90 has ten samples beyond it.
SLICES = 100
SLICE_EVENTS = 50
SERVE_CONFIG = {"plan": "serial", "aggregation": "gossip", "gossip_every": 25}

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="ingest-zipf",
            main="ingest",
            template="simplified_ny",
            config={"plan": "serial"},
            trial_events=32_000,
        ),
        Workload(
            name="ingest-weighted-durable",
            main="ingest",
            template="nelson_yu",
            config={
                "plan": "parallel",
                "ingest_workers": 2,
                "storage": "file",
                "wal_fsync_every": 64,
            },
            trial_events=6_000,
            mean_count=256,
        ),
        Workload(
            name="ingest-process",
            main="ingest",
            template="simplified_ny",
            config={"plan": "process", "delivery_batch": 256},
            trial_events=32_000,
        ),
        Workload(
            name="serve-mixed",
            main="serve",
            template="simplified_ny",
            config=SERVE_CONFIG,
            trial_events=SLICES * SLICE_EVENTS,
        ),
    )
}


def serve_probe(workload: Workload) -> Workload:
    """The cluster the read probe serves on a workload without a serving
    phase: the workload's template on the serve-mixed cluster shape."""
    return replace(workload, config=SERVE_CONFIG)


def recover_probe(workload: Workload) -> Workload:
    """The serial cluster, on a ``FileStore``, that the recovery probe
    closes and recovers on a workload whose own cluster keeps no files.
    Recovery rebuilds from files whatever plan wrote them."""
    return replace(workload, config={"plan": "serial", "storage": "file"})
