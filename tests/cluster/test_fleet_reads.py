"""Reads over a live ``cluster serve`` fleet: the reader's wire source.

A 2-worker ``exact`` fleet with ``buffer_limit=8`` gets a few events
over its sockets — too few to trigger a flush — so the two consistency
modes answer differently and the staleness stamp has something to
report:

* a replica read pulls without flushing: it owes every pending
  increment (``lag_events``), bounded by ``buffer_limit × n_nodes``;
* a consistent read flushes every worker first and owes nothing, after
  which replica reads agree with it bit for bit;
* the ``ping``-sweep cache stamp makes an idle re-read a hit;
* workers shard the keyspace, so ``replica=`` selection is refused.
"""

from __future__ import annotations

import socket

import pytest

from repro.cluster import ClusterReader, default_template, view_fingerprint
from repro.cluster.serve import fleet_down, fleet_up
from repro.cluster.transport import FrameStream
from repro.errors import ParameterError

_BUFFER_LIMIT = 8


def _deliver(record, events) -> None:
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(10.0)
    sock.connect(record["socket"])
    stream = FrameStream.from_socket(sock)
    sock.close()
    try:
        stream.send("deliver_batch", events=events)
        stream.request("drain", "drain_ack")
    finally:
        stream.close()


@pytest.fixture
def reader(tmp_path):
    """A reader over a live fleet holding 7 unflushed increments."""
    workers = fleet_up(
        tmp_path,
        n_nodes=2,
        template=default_template("exact"),
        seed=11,
        buffer_limit=_BUFFER_LIMIT,
        timeout=30.0,
    )
    try:
        _deliver(workers[0], [["a", 1]] * 3)
        _deliver(workers[1], [["b", 2]] * 2)
        yield ClusterReader.from_fleet(tmp_path, timeout=10.0)
    finally:
        fleet_down(tmp_path, timeout=10.0)


class TestFleetReplicaReads:
    def test_replica_read_owes_every_pending_increment(self, reader):
        answer = reader.get("a", consistency="replica")
        assert answer.staleness.consistency == "replica"
        assert answer.staleness.lag_events == 7
        assert answer.staleness.bound_events == 2 * _BUFFER_LIMIT
        assert answer.estimate == 0  # nothing has been flushed

    def test_default_consistency_is_replica(self, reader):
        assert reader.view().staleness.consistency == "replica"
        assert reader.replicas == (0, 1)

    def test_idle_reread_is_a_cache_hit(self, reader):
        reader.view(consistency="replica")
        assert (reader.cache_hits, reader.cache_misses) == (0, 1)
        reader.view(consistency="replica")
        assert (reader.cache_hits, reader.cache_misses) == (1, 1)


class TestFleetConsistentReads:
    def test_consistent_read_flushes_then_replicas_agree(self, reader):
        answer = reader.get("a", consistency="consistent")
        assert answer.estimate == 3
        assert answer.staleness.lag_events == 0
        replica = reader.get("b", consistency="replica")
        assert replica.staleness.lag_events == 0
        assert replica.estimate == 4
        consistent = reader.raw_view(consistency="consistent")
        assert consistent.truth == {"a": 3, "b": 4}
        assert view_fingerprint(
            reader.raw_view(consistency="replica")
        ) == view_fingerprint(consistent)


class TestFleetRefusals:
    def test_replica_selection_is_refused(self, reader):
        with pytest.raises(ParameterError, match="shard"):
            reader.view(replica=0)
        with pytest.raises(ParameterError, match="shard"):
            reader.view(consistency="consistent", replica=0)

    def test_unknown_consistency_is_refused(self, reader):
        with pytest.raises(ParameterError, match="eventual"):
            reader.get("a", consistency="eventual")


class TestFleetSubscription:
    def test_first_poll_reports_both_keys_then_quiesces(self, reader):
        subscription = reader.subscribe(consistency="consistent")
        first = subscription.poll()
        assert [update.key for update in first] == ["a", "b"]
        assert subscription.poll() == ()
