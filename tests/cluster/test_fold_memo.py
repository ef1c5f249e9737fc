"""Incremental folds and digest captures (`FoldMemo`, change stamps).

A fold re-merges only the keys whose counters changed since the last
fold, and a digest capture re-clones only the keys whose stamps moved
since the node's previous entry.  These tests pin both halves:

* **stale-memo regressions** — for every ``CounterBank`` mutator, a key
  mutated through it is re-merged (and re-cloned) on the next fold, and
  its answer changes; an untouched key's merged counter and digest
  clone are reused as the same object; a bank replaced by recovery or a
  window reset never matches a memo entry of the bank it replaced;
* **equivalence** — over random interleavings of ingest, reads of both
  consistencies, gossip rounds, scale events, crash recovery and window
  collapse, every incremental fold and capture equals a from-scratch,
  memo-free fold built here from :func:`tree_merge` and
  :func:`merge_all`: same ``view_fingerprint``, same per-key
  ``snapshot()``.
"""

from __future__ import annotations

import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    ClusterConfig,
    ClusterReader,
    ClusterSimulation,
    GossipNetwork,
    MergeTreeAggregator,
    default_template,
    tree_merge,
    view_fingerprint,
)
from repro.cluster.checkpoint import BankCheckpoint
from repro.cluster.node import CounterTemplate, IngestNode
from repro.core.factory import make_counter
from repro.core.merge import merge_all
from repro.rng.bitstream import BitBudgetedRandom
from repro.stream.workload import KeyedEvent, zipf_workload


def _nodes() -> dict[int, IngestNode]:
    nodes = {
        node_id: IngestNode(
            node_id, CounterTemplate("exact"), seed=100 + node_id
        )
        for node_id in (0, 1)
    }
    # "shared" lives on both nodes, so its fold really merges.
    nodes[0].submit_all([KeyedEvent("shared", 4), KeyedEvent("solo", 2)])
    nodes[1].submit_all([KeyedEvent("shared", 5), KeyedEvent("other", 7)])
    for node in nodes.values():
        node.flush()
    return nodes


def _migrated(count: int):
    counter = make_counter("exact", seed=9)
    counter.add(count)
    return counter


#: One entry per ``CounterBank`` mutator: mutate ``key`` on ``node``.
MUTATORS = {
    "record": lambda node, key: node.bank.record(key, 3),
    "consume_counts": lambda node, key: node.bank.consume_counts(
        [(key, 3)]
    ),
    # materialize's caller (migration) mutates the returned counter.
    "materialize": lambda node, key: node.absorb(key, _migrated(3), 3),
    "remove": lambda node, key: node.bank.remove(key),
}


@pytest.mark.parametrize("mutator", sorted(MUTATORS))
def test_central_fold_remerges_exactly_the_mutated_key(mutator):
    nodes = _nodes()
    aggregator = MergeTreeAggregator(list(nodes.values()))
    before = aggregator._fold_view()
    MUTATORS[mutator](nodes[0], "shared")
    after = aggregator._fold_view()
    assert after.counters.get("shared") is not before.counters["shared"]
    assert after.estimate("shared") != before.estimate("shared")
    for key in ("solo", "other"):
        assert after.counters[key] is before.counters[key]


@pytest.mark.parametrize("mutator", sorted(MUTATORS))
def test_capture_and_digest_view_redo_exactly_the_mutated_key(mutator):
    nodes = _nodes()
    network = GossipNetwork(seed=7)
    for node_id in nodes:
        network.add_node(node_id)
    network.converge(nodes)
    first = network.digest(0).entry(0)
    view_before = network.node_view(0)
    MUTATORS[mutator](nodes[0], "solo")
    network.converge(nodes)
    second = network.digest(0).entry(0)
    view_after = network.node_view(0)
    # The capture re-cloned only the mutated key ...
    assert second.counters.get("solo") is not first.counters["solo"]
    assert second.counters["shared"] is first.counters["shared"]
    # ... and never aliases a live counter.
    for key, clone in second.counters.items():
        assert clone is not nodes[0].bank.counter(key)
    # The digest's view re-merged only the mutated key.
    assert view_after.estimate("solo") != view_before.estimate("solo")
    assert view_after.counters.get("solo") is not view_before.counters[
        "solo"
    ]
    for key in ("shared", "other"):
        assert view_after.counters[key] is view_before.counters[key]


def test_truth_is_refolded_even_for_reused_counters():
    """``set_truth`` does not stamp (truth is summed fresh every fold),
    so a reused counter still reports the new exact count."""
    nodes = _nodes()
    aggregator = MergeTreeAggregator(list(nodes.values()))
    before = aggregator._fold_view()
    nodes[0].bank.set_truth("solo", 40)
    after = aggregator._fold_view()
    assert after.counters["solo"] is before.counters["solo"]
    assert after.truth["solo"] == 40


@pytest.mark.parametrize("replacement", ["recovery", "window reset"])
def test_replaced_bank_never_matches_the_old_memo(replacement):
    nodes = _nodes()
    aggregator = MergeTreeAggregator(list(nodes.values()))
    network = GossipNetwork(seed=7)
    for node_id in nodes:
        network.add_node(node_id)
    network.converge(nodes)
    old_stamps = dict(nodes[0].bank.stamps)
    old_entry = network.digest(0).entry(0)
    before = aggregator._fold_view()
    if replacement == "recovery":
        checkpoint = BankCheckpoint.capture(
            nodes[0].bank, nodes[0].template
        )
        nodes[0].adopt_bank(checkpoint.restore())
    else:
        nodes[0].reset(window=1)
        nodes[0].submit_all(
            [KeyedEvent("shared", 4), KeyedEvent("solo", 2)]
        )
        nodes[0].flush()
    assert not set(old_stamps.values()) & set(nodes[0].bank.stamps.values())
    after = aggregator._fold_view()
    for key in ("shared", "solo"):
        assert after.counters[key] is not before.counters[key]
    assert after.counters["other"] is before.counters["other"]
    network.refresh(nodes[0])
    entry = network.digest(0).entry(0)
    for key in entry.counters:
        assert entry.counters[key] is not old_entry.counters.get(key)


def test_memo_holds_only_the_last_fold():
    nodes = _nodes()
    aggregator = MergeTreeAggregator(list(nodes.values()))
    aggregator._fold_view()
    assert len(aggregator._memo) == 3
    nodes[0].bank.remove("solo")
    aggregator._fold_view()
    assert len(aggregator._memo) == 2


def test_fanout_change_does_not_reuse_merges():
    nodes = {
        node_id: IngestNode(node_id, CounterTemplate("exact"), seed=node_id)
        for node_id in range(3)
    }
    for node in nodes.values():
        node.submit(KeyedEvent("k", 1))
    network = GossipNetwork(seed=7)
    for node_id in nodes:
        network.add_node(node_id)
    network.converge(nodes)
    binary = network.node_view(0, fanout=2)
    wide = network.node_view(0, fanout=3)
    assert (binary.merge_rounds, wide.merge_rounds) == (2, 1)
    assert wide.counters["k"] is not binary.counters["k"]


# ----------------------------------------------------------------------
# equivalence against a from-scratch, memo-free fold
# ----------------------------------------------------------------------
def _scratch_fold(parts, fanout):
    """The memo-free reference: group by key in part order, tree-merge
    every key, sum truth when every part tracks it."""
    per_key: dict[str, list] = {}
    for counters, _ in parts:
        for key, counter in counters.items():
            per_key.setdefault(key, []).append(counter)
    truths = [truth for _, truth in parts]
    tracked = all(truth is not None for truth in truths)
    merged = {}
    rounds = 0
    for key in sorted(per_key):
        merged[key], depth = tree_merge(per_key[key], fanout)
        rounds = max(rounds, depth)
    truth = (
        {key: sum(t.get(key, 0) for t in truths) for key in merged}
        if tracked
        else None
    )
    return merged, truth, rounds


def _assert_matches_scratch(view, parts, fanout):
    merged, truth, rounds = _scratch_fold(parts, fanout)
    estimates = {key: counter.estimate() for key, counter in merged.items()}
    assert view_fingerprint(view) == (estimates, truth)
    assert {key: c.snapshot() for key, c in view.counters.items()} == {
        key: c.snapshot() for key, c in merged.items()
    }
    assert view.merge_rounds == rounds


def _check_central(sim, reader):
    """The aggregator's fold, and the reader's (possibly cached)
    consistent view, against a scratch fold of the live banks."""
    view = sim.aggregator._fold_view()
    parts = [
        (dict(node.bank.items()), node.bank.truths)
        for node in sim.aggregator.nodes
    ]
    _assert_matches_scratch(view, parts, sim.config.fanout)
    cached = reader.raw_view(consistency="consistent")
    _assert_matches_scratch(cached, parts, sim.config.fanout)


def _check_replica(sim, reader, replica):
    digest = sim.gossip.digest(replica)
    entries = [digest.entry(origin) for origin in digest.origins]
    parts = [(entry.counters, entry.truth) for entry in entries]
    for view in (
        sim.gossip.node_view(replica, fanout=sim.config.fanout),
        reader.raw_view(consistency="replica", replica=replica),
    ):
        _assert_matches_scratch(view, parts, sim.config.fanout)


def _check_own_entries(sim):
    """Right after a refresh, each node's own entry equals a fresh,
    reuse-free capture of its live bank."""
    for node in sim.nodes:
        entry = sim.gossip.digest(node.node_id).entry(node.node_id)
        fresh = {
            key: merge_all([counter])
            for key, counter in node.bank.items()
        }
        assert set(entry.counters) == set(fresh)
        for key, clone in entry.counters.items():
            assert clone is not node.bank.counter(key)
            assert clone.snapshot() == fresh[key].snapshot()
            assert clone.rng.seed == fresh[key].rng.seed


_OPS = st.sampled_from(
    (
        "ingest",
        "ingest",
        "read_consistent",
        "read_replica",
        "gossip",
        "scale_up",
        "scale_down",
        "crash",
        "collapse",
    )
)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    template=st.sampled_from(("exact", "simplified_ny", "nelson_yu")),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    ops=st.lists(
        st.tuples(_OPS, st.integers(min_value=0, max_value=7)),
        min_size=4,
        max_size=20,
    ),
)
def test_incremental_folds_equal_scratch_folds(template, seed, ops):
    sim = ClusterSimulation(
        ClusterConfig(
            n_nodes=3,
            template=default_template(template),
            seed=seed,
            buffer_limit=16,
            aggregation="gossip",
            gossip_every=60,
        )
    )
    reader = ClusterReader.from_simulation(sim)
    events = list(
        zipf_workload(BitBudgetedRandom(seed), n_keys=30, n_events=2000)
    )
    cursor = 0
    for op, pick in ops:
        node_ids = sorted(node.node_id for node in sim.nodes)
        target = node_ids[pick % len(node_ids)]
        if op == "ingest":
            sim.run(events[cursor : cursor + 150])
            cursor += 150
        elif op == "read_consistent":
            reader.raw_view(consistency="consistent")
        elif op == "read_replica":
            reader.raw_view(consistency="replica", replica=target)
        elif op == "gossip":
            sim.gossip_round()
            _check_own_entries(sim)
        elif op == "scale_up":
            sim.scale_up()
        elif op == "scale_down" and len(node_ids) > 1:
            sim.scale_down(target)
        elif op == "crash":
            sim.crash_node(target)
        elif op == "collapse":
            sim.collapse_window()
        _check_central(sim, reader)
        for node_id in sorted(node.node_id for node in sim.nodes):
            _check_replica(sim, reader, node_id)


def test_concurrent_folds_share_one_memo_safely():
    """HTTP handler threads fold the same digest concurrently.  Each
    fold swaps in a whole new memo, so every thread's view equals the
    scratch fold and the memo never outgrows one view."""
    nodes = {
        node_id: IngestNode(
            node_id, default_template("simplified_ny"), seed=node_id
        )
        for node_id in range(3)
    }
    events = zipf_workload(BitBudgetedRandom(5), n_keys=200, n_events=3000)
    for index, event in enumerate(events):
        nodes[index % 3].submit(event)
    network = GossipNetwork(seed=7)
    for node_id in nodes:
        network.add_node(node_id)
    network.converge(nodes)
    digest = network.digest(0)
    parts = [
        (digest.entry(origin).counters, digest.entry(origin).truth)
        for origin in digest.origins
    ]
    expected = view_fingerprint(network.node_view(0))
    assert expected[0] == {
        key: counter.estimate()
        for key, counter in _scratch_fold(parts, 2)[0].items()
    }
    seen: list = []
    errors: list = []

    def reader() -> None:
        try:
            for fanout in (2, 3, 2, 2, 3, 2):
                view = network.node_view(0, fanout=fanout)
                if fanout == 2:
                    seen.append(view_fingerprint(view))
        except Exception as exc:  # surfaced by the assert below
            errors.append(exc)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(seen) == 6 * 4
    assert all(fingerprint == expected for fingerprint in seen)
    assert len(digest._memo) == len(expected[0])
