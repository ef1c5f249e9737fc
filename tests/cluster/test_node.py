"""Tests for ingest nodes and counter templates."""

from __future__ import annotations

import pytest

from repro.analytics.counter_bank import CounterBank
from repro.cluster.node import CounterTemplate, IngestNode, default_template
from repro.errors import ParameterError
from repro.rng.bitstream import BitBudgetedRandom
from repro.stream.workload import KeyedEvent, weighted_zipf_workload


def _node(buffer_limit: int = 100, **kwargs) -> IngestNode:
    return IngestNode(
        0,
        default_template("simplified_ny"),
        seed=7,
        buffer_limit=buffer_limit,
        **kwargs,
    )


class TestCounterTemplate:
    def test_build(self):
        from repro.rng.bitstream import BitBudgetedRandom

        template = CounterTemplate("morris", {"a": 0.5})
        counter = template.build(BitBudgetedRandom(1))
        counter.add(100)
        assert counter.n_increments == 100

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ParameterError):
            CounterTemplate("hyperloglog")

    def test_dict_roundtrip(self):
        template = default_template("nelson_yu")
        clone = CounterTemplate.from_dict(template.to_dict())
        assert clone == template

    def test_default_template_unknown(self):
        with pytest.raises(ParameterError):
            default_template("csuros")  # not mergeable, no preset


class TestWriteBuffer:
    def test_coalescing(self):
        node = _node(buffer_limit=1000)
        for _ in range(10):
            node.submit(KeyedEvent("hot"))
        node.submit(KeyedEvent("cold"))
        assert node.pending == 11
        assert len(node.bank) == 0  # nothing flushed yet
        node.flush()
        assert node.pending == 0
        assert node.bank.truth("hot") == 10
        assert node.bank.truth("cold") == 1
        assert node.n_flushes == 1

    def test_auto_flush_at_limit(self):
        node = _node(buffer_limit=5)
        for i in range(5):
            node.submit(KeyedEvent(f"k{i}"))
        assert node.pending == 0  # hit the limit, flushed itself
        assert node.n_flushes == 1

    def test_weighted_events(self):
        node = _node(buffer_limit=100)
        node.submit(KeyedEvent("k", count=60))
        node.submit(KeyedEvent("k", count=60))  # 120 >= limit
        assert node.pending == 0
        assert node.bank.truth("k") == 120
        assert node.events_ingested == 120

    def test_zero_count_is_noop(self):
        node = _node()
        node.submit(KeyedEvent("k", count=0))
        assert node.pending == 0
        assert node.events_ingested == 0

    def test_estimate_sees_buffered_increments(self):
        node = _node(buffer_limit=1000)
        node.submit(KeyedEvent("k", count=42))
        assert node.estimate("k") == 42.0  # exact while still buffered

    def test_flush_is_order_independent(self):
        streams = (
            [KeyedEvent("a", 3), KeyedEvent("b", 5), KeyedEvent("a", 2)],
            [KeyedEvent("b", 5), KeyedEvent("a", 2), KeyedEvent("a", 3)],
        )
        estimates = []
        for events in streams:
            node = _node(buffer_limit=1000)
            node.submit_all(events)
            node.flush()
            estimates.append((node.estimate("a"), node.estimate("b")))
        assert estimates[0] == estimates[1]


class TestValidationAndReset:
    def test_bad_parameters(self):
        template = default_template()
        with pytest.raises(ParameterError):
            IngestNode(-1, template, seed=0)
        with pytest.raises(ParameterError):
            IngestNode(0, template, seed=0, buffer_limit=0)

    def test_reset_starts_empty_window(self):
        node = _node(buffer_limit=10_000)
        node.submit(KeyedEvent("k", count=500))
        node.flush()
        node.submit(KeyedEvent("pending", count=3))
        node.reset()
        assert node.pending == 0
        assert len(node.bank) == 0
        assert node.estimate("k") == 0.0
        # Lifetime stats survive the window roll.
        assert node.events_ingested == 503

    def test_reset_windows_are_deterministic(self):
        def run():
            node = _node(buffer_limit=10_000)
            node.submit(KeyedEvent("k", count=10_000))
            node.flush()
            node.reset()
            node.submit(KeyedEvent("k", count=10_000))
            node.flush()
            return node.estimate("k")

        assert run() == run()


def _weighted_events(n_events: int):
    return list(
        weighted_zipf_workload(
            BitBudgetedRandom(424242), 60, n_events, mean_count=16
        )
    )


class TestFlushBitIdentity:
    def test_flush_matches_manual_bank(self):
        """A flush is the sorted coalesced buffer applied to a bank with
        the node's seed — same estimates, truth, and state bits."""
        node = _node(buffer_limit=10**9)
        node.submit_all(_weighted_events(600))
        buffered = sorted(node._buffer.items())
        node.flush()
        reference = CounterBank(
            default_template("simplified_ny").build, seed=7
        )
        reference.consume_counts(buffered)
        for key, _ in buffered:
            assert node.bank.estimate(key) == reference.estimate(key)
            assert node.bank.truth(key) == reference.truth(key)
        assert node.bank.total_state_bits() == reference.total_state_bits()


class TestSubmitCounts:
    def test_matches_per_event_submit(self):
        """Same buffer state, lifetime stats, flush timing, and bank
        contents as submitting one KeyedEvent per pair."""
        pairs = [(event.key, event.count) for event in _weighted_events(3000)]
        pairs[7] = (pairs[7][0], 0)  # zero-count events are dropped
        by_event, by_pairs = _node(buffer_limit=64), _node(buffer_limit=64)
        ingested_events = by_event.submit_all(
            KeyedEvent(key, count) for key, count in pairs
        )
        ingested_pairs = by_pairs.submit_counts(pairs)
        assert ingested_pairs == ingested_events
        assert by_pairs.events_ingested == by_event.events_ingested
        assert by_pairs.events_coalesced == by_event.events_coalesced
        assert by_pairs.n_flushes == by_event.n_flushes
        assert by_pairs.pending == by_event.pending
        assert by_pairs._buffer == by_event._buffer
        for key in by_event.bank.keys():
            assert by_pairs.bank.estimate(key) == by_event.bank.estimate(key)

    def test_flushes_when_buffer_fills(self):
        node = _node(buffer_limit=8)
        node.submit_counts([("a", 5), ("b", 5), ("c", 1)])
        assert node.n_flushes == 1
        assert node.pending == 1  # "c" arrived after the flush


class TestNodeRecords:
    """Each node record has one writer and one reader on IngestNode."""

    def test_init_params_rebuild_the_node(self):
        node = IngestNode(
            5,
            default_template("simplified_ny"),
            seed=91,
            buffer_limit=16,
            track_truth=False,
        )
        clone = IngestNode.from_init(node.init_params())
        assert clone.node_id == 5
        assert clone.template == node.template
        assert clone.bank.seed == 91
        assert clone.buffer_limit == 16
        assert clone.bank.tracks_truth is False
        assert clone.init_params() == node.init_params()
        pairs = [(event.key, event.count) for event in _weighted_events(2000)]
        node.submit_counts(pairs)
        clone.submit_counts(pairs)
        node.flush()
        clone.flush()
        assert sorted(clone.bank.keys()) == sorted(node.bank.keys())
        for key in node.bank.keys():
            assert clone.estimate(key) == node.estimate(key)

    def test_init_params_carry_the_live_bank_seed(self):
        node = _node()
        node.reset(window=3)
        assert node.init_params()["seed"] == node.bank.seed != 7

    def test_lifetime_stats_round_trip(self):
        node = _node(buffer_limit=8)
        node.submit_counts([("a", 5), ("a", 2), ("b", 5), ("c", 1)])
        stats = node.lifetime_stats()
        assert stats == {
            "events_ingested": 13,
            "events_coalesced": 1,
            "n_flushes": 1,
        }
        fresh = _node()
        fresh.restore_lifetime_stats(stats)
        assert fresh.lifetime_stats() == stats
        assert fresh.events_ingested == 13

    def test_checkpoint_meta_without_stats_restores_zeros(self):
        from repro.cluster.checkpoint import BankCheckpoint

        node = _node()
        node.submit(KeyedEvent("a", 4))
        legacy = BankCheckpoint.capture(
            node.bank, node.template, meta={"node_id": 0, "wal_seq": 3}
        )
        restored = _node()
        restored.restore_lifetime_stats({"n_flushes": 9})
        restored.restore_lifetime_stats(
            BankCheckpoint.decode(legacy.encode()).meta
        )
        assert restored.lifetime_stats() == {
            "events_ingested": 0,
            "events_coalesced": 0,
            "n_flushes": 0,
        }

    def test_recovery_reads_a_checkpoint_without_stats_as_zeros(self):
        from repro.cluster import ClusterConfig, ClusterSimulation
        from repro.cluster.checkpoint import BankCheckpoint

        config = ClusterConfig(n_nodes=1, template=default_template("exact"))
        with ClusterSimulation(config) as simulation:
            simulation.run([KeyedEvent("a", 3), KeyedEvent("b", 2)])
            line = simulation.checkpoint_node(0)
            saved = BankCheckpoint.decode(line)
            assert saved.meta["events_ingested"] == 5
            legacy_meta = {
                key: value
                for key, value in saved.meta.items()
                if key not in simulation.nodes[0].lifetime_stats()
            }
            simulation.store.save(
                0,
                BankCheckpoint(
                    saved.template,
                    saved.seed,
                    saved.snapshots,
                    saved.truth,
                    legacy_meta,
                    saved.topology,
                ).encode(),
            )
            simulation.crash_node(0)
            node = simulation.nodes[0]
            assert node.lifetime_stats() == {
                "events_ingested": 0,
                "events_coalesced": 0,
                "n_flushes": 0,
            }
            assert node.estimate("a") == 3.0
