"""Whole-cluster scenario bars at smoke size.

Each class runs one end-to-end scenario on the shared workload (Zipf
over 2000 keys, 20,000 events, seed 20201006) and pins the bars no
narrower test in ``tests/cluster/`` holds at the same strength:

* **elasticity** — a 2→4→3 rebalance under tumbling retention stays
  within 1.5x of a static 3-node run's rms error at comparable state;
* **gossip** — every node's converged read equals the central fold,
  and the end-of-stream pass converges in ``O(log n)`` rounds at 2, 4
  and 8 nodes;
* **membership** — an unhealed kill is suspected, confirmed and healed
  by the cluster within ``suspect_after`` plus ``O(log n)`` rounds, and
  the result equals the driver-healed reference bit for bit;
* **serving** — a burst of replica reads on a quiescent cluster is
  served mostly from cache, with honest staleness stamps;
* **weighted plans** — on a heavy-count stream every execution plan
  computes the same exact view, crash and migration included;
* **durable storage** — the file store computes what the memory store
  does, crash included, and reports the bytes it retains.
"""

from __future__ import annotations

import math

import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterReader,
    ClusterSimulation,
    NodeFailure,
    ScaleEvent,
    TumblingRetention,
    default_template,
    view_fingerprint,
)
from repro.rng.bitstream import BitBudgetedRandom
from repro.stream.workload import weighted_zipf_workload, zipf_workload

_SEED = 2020_10_06
_EVENTS = 20_000
_KEYS = 2000


def _events():
    return zipf_workload(BitBudgetedRandom(_SEED), _KEYS, _EVENTS)


def _log_rounds(n_nodes: int) -> int:
    """A generous ``O(log n)`` round allowance: never linear in n."""
    return 3 * (math.ceil(math.log2(n_nodes)) + 1)


def _gossip_config(n_nodes: int, **overrides) -> ClusterConfig:
    settings = dict(
        n_nodes=n_nodes,
        template=default_template("exact"),
        seed=_SEED,
        buffer_limit=512,
        checkpoint_every=max(_EVENTS // (4 * n_nodes), 1000),
        aggregation="gossip",
        gossip_fanout=1,
        gossip_every=_EVENTS // 8,
    )
    settings.update(overrides)
    return ClusterConfig(**settings)


class TestElasticity:
    def test_rebalance_keeps_static_accuracy_and_state(self):
        shared = dict(
            template=default_template("simplified_ny"),
            seed=_SEED,
            buffer_limit=512,
            checkpoint_every=_EVENTS // 8,
            routing="ring",
        )
        retention = _EVENTS // 3
        static_config = ClusterConfig(
            n_nodes=3,
            retention=TumblingRetention(window_events=retention),
            **shared,
        )
        elastic_config = ClusterConfig(
            n_nodes=2,
            retention=TumblingRetention(window_events=retention),
            scale_events=(
                ScaleEvent(at_event=_EVENTS // 4, action="add"),
                ScaleEvent(at_event=_EVENTS // 2, action="add"),
                ScaleEvent(
                    at_event=(3 * _EVENTS) // 4, action="remove", node_id=1
                ),
            ),
            **shared,
        )
        with ClusterSimulation(static_config) as simulation:
            static = simulation.run(_events())
        with ClusterSimulation(elastic_config) as simulation:
            elastic = simulation.run(_events())
        assert elastic.total_events == static.total_events == _EVENTS
        assert elastic.n_nodes == static.n_nodes == 3
        assert elastic.epoch == 3 and elastic.keys_migrated > 0
        assert elastic.windows_collapsed >= 2
        # Migration is merging (Remark 2.4), so it costs no accuracy;
        # the floor covers runs where both errors are sampling noise.
        assert elastic.rms_relative_error <= max(
            1.5 * static.rms_relative_error, 0.005
        )
        assert elastic.total_state_bits <= 1.5 * static.total_state_bits


class TestGossipConvergence:
    @pytest.mark.parametrize("n_nodes", [2, 4, 8])
    def test_converges_in_log_rounds_to_the_central_fold(self, n_nodes):
        config = _gossip_config(
            n_nodes,
            failures=(
                NodeFailure(at_event=_EVENTS // 2, node_id=n_nodes - 1),
            ),
        )
        with ClusterSimulation(config) as simulation:
            result = simulation.run(_events())
            central = view_fingerprint(simulation.aggregator.global_view())
            for node in simulation.nodes:
                assert view_fingerprint(
                    simulation.node_view(node.node_id)
                ) == central
        assert result.total_events == _EVENTS
        assert result.max_relative_error == 0.0
        assert 1 <= result.gossip_convergence_rounds <= _log_rounds(n_nodes)
        assert result.gossip_rounds > result.gossip_convergence_rounds
        assert result.gossip_max_staleness >= 0
        assert result.recoveries >= 1


class TestMembershipDetection:
    _SUSPECT_AFTER = 2

    @pytest.mark.parametrize("n_nodes", [2, 4, 8])
    def test_self_heal_is_prompt_and_matches_driver_heal(self, n_nodes):
        fingerprints = {}
        for heal in (False, True):
            config = _gossip_config(
                n_nodes,
                membership=not heal,
                suspect_after=self._SUSPECT_AFTER,
                failures=(
                    NodeFailure(
                        at_event=_EVENTS // 2,
                        node_id=n_nodes - 1,
                        heal=heal,
                    ),
                ),
            )
            with ClusterSimulation(config) as simulation:
                result = simulation.run(_events())
                fingerprints[heal] = view_fingerprint(
                    simulation.aggregator.global_view()
                )
            if not heal:
                healed = result
        assert fingerprints[False] == fingerprints[True]
        assert healed.total_events == _EVENTS
        assert healed.max_relative_error == 0.0
        assert healed.membership_kills == 1
        assert healed.membership_suspicions >= 1
        assert healed.membership_confirmations >= 1
        assert healed.membership_heals == 1
        assert healed.recoveries >= 1
        # The suspicion threshold plus vote dissemination over a quorum.
        bound = self._SUSPECT_AFTER + 2 + _log_rounds(n_nodes)
        assert 1 <= healed.membership_detection_rounds <= bound


class TestServingReads:
    _QUERIES = 2000

    @pytest.mark.parametrize("n_nodes", [1, 2, 4])
    def test_replica_burst_hits_cache_with_honest_staleness(self, n_nodes):
        config = _gossip_config(n_nodes)
        with ClusterSimulation(config) as simulation:
            simulation.run(_events())
            reader = ClusterReader.from_simulation(simulation)
            central = view_fingerprint(simulation.aggregator.global_view())
            for replica in reader.replicas:
                assert reader.view(
                    consistency="replica", replica=replica
                ).fingerprint() == central
            staleness = reader.staleness(consistency="replica")
            hot_keys = [
                key
                for key, _ in reader.raw_view(consistency="replica").top_keys(
                    32
                )
            ]
            hits_before = reader.cache_hits
            misses_before = reader.cache_misses
            for index in range(self._QUERIES):
                reader.get(
                    hot_keys[index % len(hot_keys)], consistency="replica"
                )
        hits = reader.cache_hits - hits_before
        lookups = hits + reader.cache_misses - misses_before
        assert lookups == self._QUERIES
        # A burst against a quiescent cluster folds once, then hits.
        assert hits / lookups > 0.5
        assert staleness.bound_events <= config.gossip_every
        assert staleness.lag_events == 0


class TestWeightedPlanIdentity:
    def test_every_plan_computes_the_same_exact_view(self):
        n_events = 5000
        fingerprints = []
        for plan, workers in (("serial", 1), ("parallel", 4), ("process", 1)):
            config = ClusterConfig(
                n_nodes=4,
                template=default_template("exact"),
                seed=_SEED,
                checkpoint_every=1000,
                routing="ring",
                scale_events=(
                    ScaleEvent(at_event=n_events // 3, action="add"),
                ),
                failures=(NodeFailure(at_event=n_events // 2, node_id=1),),
                plan=plan,
                ingest_workers=workers,
                delivery_batch=64,
            )
            events = weighted_zipf_workload(
                BitBudgetedRandom(_SEED),
                n_keys=_KEYS,
                n_events=n_events,
                mean_count=256,
            )
            with ClusterSimulation(config) as simulation:
                result = simulation.run(events)
                fingerprints.append(
                    view_fingerprint(simulation.aggregator.global_view())
                )
            assert result.max_relative_error == 0.0
            assert result.total_events > n_events  # weighted feed
        assert fingerprints[0] == fingerprints[1] == fingerprints[2]


class TestDurableStorage:
    def test_file_store_matches_memory_and_retains_bytes(self, tmp_path):
        shared = dict(
            n_nodes=4,
            template=default_template("simplified_ny"),
            seed=_SEED,
            buffer_limit=512,
            checkpoint_every=_EVENTS // 8,
            wal_segment_events=_EVENTS // 16,
            failures=(NodeFailure(at_event=_EVENTS // 2, node_id=3),),
        )
        results = {}
        for storage in ("memory", "file"):
            config = ClusterConfig(
                storage=storage,
                storage_dir=str(tmp_path) if storage == "file" else None,
                **shared,
            )
            with ClusterSimulation(config) as simulation:
                results[storage] = simulation.run(_events())
        memory, file = results["memory"], results["file"]
        assert memory.total_events == file.total_events == _EVENTS
        assert memory.rms_relative_error == file.rms_relative_error
        assert memory.max_relative_error == file.max_relative_error
        assert memory.checkpoints == file.checkpoints
        assert memory.recoveries == file.recoveries >= 1
        assert file.storage_bytes > 0
