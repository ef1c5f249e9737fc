"""End-to-end HTTP/SSE frontend tests against a live server.

One finished gossip cluster, one ``ClusterHTTPServer`` on an ephemeral
port, real sockets: point lookups, top-k, whole views, one SSE event,
a ``/metrics`` scrape, and the 400/404 error contract — every JSON
body must be *strict* JSON (the repo-wide artifact convention).
"""

from __future__ import annotations

import http.client
import json
import socket
import urllib.error
import urllib.request

import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterReader,
    ClusterSimulation,
    default_template,
)
from repro.cluster.httpd import ClusterHTTPServer, _Handler, serve_http
from repro.errors import ParameterError
from repro.rng.bitstream import BitBudgetedRandom
from repro.stream.workload import zipf_workload

_SEED = 11
_EVENTS = 1500


@pytest.fixture(scope="module")
def served():
    """A finished cluster behind a live HTTP server (module-scoped:
    the endpoints under test are read-only)."""
    config = ClusterConfig(
        n_nodes=3,
        template=default_template("exact"),
        seed=_SEED,
        buffer_limit=64,
        aggregation="gossip",
        gossip_every=_EVENTS // 4,
    )
    simulation = ClusterSimulation(config)
    simulation.run(
        zipf_workload(
            BitBudgetedRandom(_SEED), n_keys=40, n_events=_EVENTS
        )
    )
    reader = ClusterReader.from_simulation(simulation)
    server = serve_http(reader)
    yield simulation, reader, server
    server.close()


def _get(server, endpoint: str) -> tuple[int, bytes]:
    with urllib.request.urlopen(
        server.url + endpoint, timeout=10
    ) as reply:
        return reply.status, reply.read()


def _get_json(server, endpoint: str) -> dict:
    status, body = _get(server, endpoint)
    assert status == 200
    text = body.decode("utf-8")
    payload = json.loads(text)
    # Strict JSON: a re-dump with allow_nan=False must round-trip.
    json.dumps(payload, allow_nan=False)
    return payload


def _error_json(server, endpoint: str, status: int) -> dict:
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _get(server, endpoint)
    assert excinfo.value.code == status
    return json.loads(excinfo.value.read().decode("utf-8"))


class TestEndpoints:
    def test_healthz(self, served):
        _, reader, server = served
        payload = _get_json(server, "/healthz")
        assert payload["status"] == "ok"
        assert payload["replicas"] == list(reader.replicas)
        assert payload["consistency"] == ["replica", "consistent"]

    def test_point_lookup_matches_the_reader(self, served):
        _, reader, server = served
        payload = _get_json(server, "/v1/keys/page-000000")
        expected = reader.get("page-000000")
        assert payload["key"] == "page-000000"
        assert payload["estimate"] == expected.estimate
        assert payload["truth"] == expected.truth
        assert payload["staleness"]["consistency"] == "replica"
        assert payload["staleness"]["lag_events"] == 0

    def test_unseen_key_counts_zero(self, served):
        _, _, server = served
        payload = _get_json(server, "/v1/keys/never-seen")
        assert payload["estimate"] == 0.0

    def test_topk(self, served):
        _, reader, server = served
        payload = _get_json(server, "/v1/topk?k=5")
        assert payload["k"] == 5
        expected = [
            (entry.key, entry.estimate)
            for entry in reader.top_k(5).entries
        ]
        assert [
            (entry["key"], entry["estimate"])
            for entry in payload["entries"]
        ] == expected

    def test_view_consistencies_agree_after_converge(self, served):
        _, _, server = served
        replica = _get_json(server, "/v1/view?consistency=replica")
        consistent = _get_json(
            server, "/v1/view?consistency=consistent"
        )
        assert replica["counts"] == consistent["counts"]
        assert replica["truth"] == consistent["truth"]
        assert replica["staleness"]["consistency"] == "replica"
        assert consistent["staleness"]["consistency"] == "consistent"

    def test_replica_selection(self, served):
        _, reader, server = served
        for replica in reader.replicas:
            payload = _get_json(
                server, f"/v1/view?replica={replica}"
            )
            assert payload["staleness"]["replica"] == replica

    def test_stream_emits_sse_events(self, served):
        _, _, server = served
        status, body = _get(
            server, "/v1/stream?limit=1&poll_ms=1&keys=page-000000"
        )
        assert status == 200
        text = body.decode("utf-8")
        frames = [
            frame for frame in text.split("\n\n") if frame.strip()
        ]
        assert frames and frames[0].startswith("event: count\n")
        payload = json.loads(
            frames[0].split("\ndata: ", 1)[1]
        )
        assert payload["key"] == "page-000000"

    def test_metrics_scrape(self, served):
        _, _, server = served
        status, body = _get(server, "/metrics")
        assert status == 200
        text = body.decode("utf-8")
        assert "http_requests_total" in text
        assert "queries_total" in text


class TestErrorContract:
    def test_unknown_endpoint_is_404_json(self, served):
        _, _, server = served
        payload = _error_json(server, "/v2/nothing", 404)
        assert "unknown endpoint" in payload["error"]

    def test_unknown_consistency_is_400_json(self, served):
        _, _, server = served
        payload = _error_json(
            server, "/v1/view?consistency=eventual", 400
        )
        assert "unknown consistency" in payload["error"]

    def test_bad_replica_is_400_json(self, served):
        _, _, server = served
        payload = _error_json(server, "/v1/view?replica=abc", 400)
        assert "replica must be an integer" in payload["error"]

    def test_bad_k_is_400_json(self, served):
        _, _, server = served
        payload = _error_json(server, "/v1/topk?k=many", 400)
        assert "k must be an integer" in payload["error"]

    def test_missing_key_is_400_json(self, served):
        _, _, server = served
        payload = _error_json(server, "/v1/keys/", 400)
        assert "missing key" in payload["error"]


class TestKeepAlive:
    def test_accepted_sockets_disable_nagle(self, served, monkeypatch):
        """A reply is written as headers then body; with Nagle's
        algorithm on, a keep-alive client's delayed ACK held the body
        back ~40 ms.  Every accepted connection must carry
        ``TCP_NODELAY``."""
        _, _, server = served
        seen = []
        setup = _Handler.setup

        def recording_setup(handler):
            setup(handler)
            seen.append(
                handler.connection.getsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY
                )
            )

        monkeypatch.setattr(_Handler, "setup", recording_setup)
        connection = http.client.HTTPConnection(
            server.server_address[0], server.port, timeout=10
        )
        try:
            for _ in range(2):  # two reads on one keep-alive connection
                connection.request("GET", "/v1/keys/page-000000")
                reply = connection.getresponse()
                assert reply.status == 200
                json.loads(reply.read())
        finally:
            connection.close()
        assert len(seen) == 1 and seen[0] != 0


class TestServerLifecycle:
    def test_double_start_is_loud(self, served):
        _, _, server = served
        with pytest.raises(ParameterError, match="already started"):
            server.start()

    def test_close_is_idempotent(self):
        config = ClusterConfig(
            n_nodes=1,
            template=default_template("exact"),
            seed=_SEED,
        )
        simulation = ClusterSimulation(config)
        simulation.run(
            zipf_workload(
                BitBudgetedRandom(_SEED), n_keys=5, n_events=50
            )
        )
        server = serve_http(ClusterReader.from_simulation(simulation))
        assert isinstance(server, ClusterHTTPServer)
        url = server.url
        server.close()
        server.close()
        with pytest.raises(OSError):
            urllib.request.urlopen(url + "/healthz", timeout=2)
