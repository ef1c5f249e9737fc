"""Stdlib-only HTTP/SSE frontend over :class:`~repro.cluster.query.ClusterReader`.

The serving layer the ROADMAP promised: "millions of readers" hit the
cluster over HTTP, answered from local gossip digests at a reported
staleness bound instead of forcing a central fold per read.  Built
entirely on :mod:`http.server` (``ThreadingHTTPServer`` — one thread
per connection, daemon threads), no third-party dependency.

Endpoints (all ``GET``; bodies are strict JSON via
:func:`~repro.cluster.entities.dump_strict_json` unless noted):

=====================  ==================================================
``/v1/keys/<key>``     one key's count (``KeyCount`` payload)
``/v1/topk``           the ``k`` heaviest keys (``TopK``; ``?k=10``)
``/v1/view``           the whole folded view (``ViewSnapshot``)
``/v1/stream``         Server-Sent Events pushing count updates
                       (``text/event-stream``; one ``event: count``
                       per changed key, data = ``KeyCount`` JSON)
``/healthz``           liveness + replica inventory
``/metrics``           Prometheus text exposition (PR-6 registry)
=====================  ==================================================

Every ``/v1`` endpoint takes ``?consistency=replica|consistent`` and
``?replica=<node id>`` query parameters, mapped straight onto the
reader's API; answers carry the reader's ``StalenessInfo`` stamp.
``/v1/stream`` additionally takes ``keys`` (comma-separated filter),
``limit`` (stop after N events — how tests and smoke scripts get a
terminating stream) and ``poll_ms`` (poll cadence, default 200).

The server only ever *reads* through the reader — the inertness
invariant (a served run is fingerprint-identical to an unserved one)
is pinned in ``tests/cluster/test_properties.py``.  Request handling
publishes ``http_requests_total{endpoint,status}`` counters and a
``query_seconds{endpoint}`` wall-clock histogram into the reader's
metrics registry, so ``/metrics`` reports the serving path's own load.
"""

from __future__ import annotations

import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING, Any, Callable
from urllib.parse import parse_qs, unquote, urlparse

from repro.cluster.entities import READ_CONSISTENCY, dump_strict_json
from repro.errors import ParameterError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.query import ClusterReader

__all__ = ["ClusterHTTPServer", "serve_http"]

#: Wall-clock histogram bounds for ``query_seconds`` (fast local reads).
_QUERY_SECONDS_BOUNDS = (
    0.0001,
    0.0005,
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
)


def _bad_request(message: str) -> tuple[int, dict[str, Any]]:
    return 400, {"error": message}


def _int_param(
    query: dict[str, list[str]],
    name: str,
    default: int | None = None,
    what: str = "an integer",
) -> int | None:
    """The last ``name`` query parameter as an int (``default`` when
    absent); a non-integer is a ``ParameterError`` (HTTP 400)."""
    raw = query.get(name, [None])[-1]
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ParameterError(f"{name} must be {what}, got {raw!r}") from None


class _Handler(BaseHTTPRequestHandler):
    """One request; the reader and registry hang off the server."""

    protocol_version = "HTTP/1.1"
    # A reply goes out as two writes (headers, then body).  With Nagle's
    # algorithm on, the second waits for a keep-alive client's delayed
    # ACK of the first: ~40 ms on every read.
    disable_nagle_algorithm = True
    server: "ClusterHTTPServer"

    # Quiet by default: per-request stderr lines would interleave with
    # CLI table output; the registry's counters are the access log.
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _send_json(self, status: int, payload: Any) -> None:
        self._send_text(status, dump_strict_json(payload), "application/json")

    def _send_text(
        self, status: int, body: str, content_type: str
    ) -> None:
        encoded = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(encoded)))
        self.end_headers()
        self.wfile.write(encoded)

    def _read_params(
        self, query: dict[str, list[str]]
    ) -> tuple[str | None, int | None]:
        consistency = query.get("consistency", [None])[-1]
        replica = _int_param(query, "replica", what="an integer node id")
        return consistency, replica

    def _count(self, endpoint: str, status: int) -> None:
        registry = self.server.registry
        if registry is not None:
            registry.inc(
                "http_requests_total",
                endpoint=endpoint,
                status=str(status),
            )

    def _observe(self, endpoint: str, seconds: float) -> None:
        registry = self.server.registry
        if registry is not None:
            registry.observe(
                "query_seconds", seconds, endpoint=endpoint
            )

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server convention
        parsed = urlparse(self.path)
        path = parsed.path
        query = parse_qs(parsed.query)
        started = time.perf_counter()
        endpoint, handler = self._route(path)
        try:
            if handler is None:
                self._send_json(
                    404, {"error": f"unknown endpoint {path!r}"}
                )
                self._count(endpoint, 404)
                return
            status = handler(path, query)
        except ParameterError as exc:
            status, payload = _bad_request(str(exc))
            self._send_json(status, payload)
        except (BrokenPipeError, ConnectionResetError):
            # Client hung up mid-stream; nothing to answer.
            status = 499
        self._count(endpoint, status)
        self._observe(endpoint, time.perf_counter() - started)

    def _route(
        self, path: str
    ) -> tuple[
        str,
        Callable[[str, dict[str, list[str]]], int] | None,
    ]:
        if path.startswith("/v1/keys/"):
            return "keys", self._handle_key
        if path == "/v1/topk":
            return "topk", self._handle_topk
        if path == "/v1/view":
            return "view", self._handle_view
        if path == "/v1/stream":
            return "stream", self._handle_stream
        if path == "/healthz":
            return "healthz", self._handle_healthz
        if path == "/metrics":
            return "metrics", self._handle_metrics
        return "unknown", None

    # ------------------------------------------------------------------
    # endpoints
    # ------------------------------------------------------------------
    def _handle_key(
        self, path: str, query: dict[str, list[str]]
    ) -> int:
        key = unquote(path[len("/v1/keys/") :])
        if not key:
            raise ParameterError("missing key in /v1/keys/<key>")
        consistency, replica = self._read_params(query)
        answer = self.server.reader.get(key, consistency, replica)
        self._send_json(200, answer.to_payload())
        return 200

    def _handle_topk(
        self, path: str, query: dict[str, list[str]]
    ) -> int:
        consistency, replica = self._read_params(query)
        k = _int_param(query, "k", 10)
        answer = self.server.reader.top_k(k, consistency, replica)
        self._send_json(200, answer.to_payload())
        return 200

    def _handle_view(
        self, path: str, query: dict[str, list[str]]
    ) -> int:
        consistency, replica = self._read_params(query)
        answer = self.server.reader.view(consistency, replica)
        self._send_json(200, answer.to_payload())
        return 200

    def _handle_healthz(
        self, path: str, query: dict[str, list[str]]
    ) -> int:
        reader = self.server.reader
        self._send_json(
            200,
            {
                "status": "ok",
                "replicas": list(reader.replicas),
                "consistency": list(READ_CONSISTENCY),
            },
        )
        return 200

    def _handle_metrics(
        self, path: str, query: dict[str, list[str]]
    ) -> int:
        render = self.server.metrics_render
        if render is None:
            self._send_json(
                404, {"error": "no metrics registry attached"}
            )
            return 404
        self._send_text(
            200, render(), "text/plain; version=0.0.4; charset=utf-8"
        )
        return 200

    def _handle_stream(
        self, path: str, query: dict[str, list[str]]
    ) -> int:
        consistency, replica = self._read_params(query)
        keys_raw = query.get("keys", [None])[-1]
        keys = (
            [k for k in keys_raw.split(",") if k]
            if keys_raw is not None
            else None
        )
        limit = _int_param(query, "limit")
        if limit is not None and limit < 1:
            raise ParameterError(f"limit must be >= 1, got {limit}")
        poll_s = max(_int_param(query, "poll_ms", 200), 1) / 1000.0
        subscription = self.server.reader.subscribe(
            keys, consistency, replica
        )
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        # SSE is open-ended: no Content-Length, close delimits.
        self.send_header("Connection", "close")
        self.end_headers()
        sent = 0
        while not self.server.closing:
            for update in subscription.poll():
                data = dump_strict_json(update.to_payload())
                self.wfile.write(
                    f"event: count\ndata: {data}\n\n".encode("utf-8")
                )
                sent += 1
                if limit is not None and sent >= limit:
                    break
            self.wfile.flush()
            if limit is not None and sent >= limit:
                break
            time.sleep(poll_s)
        return 200


class ClusterHTTPServer(ThreadingHTTPServer):
    """A background HTTP server bound to one :class:`ClusterReader`.

    Parameters
    ----------
    reader:
        The query API instance every endpoint answers through.
    host / port:
        Bind address; ``port=0`` picks an ephemeral port (read the
        chosen one back from :attr:`port`).
    metrics_render:
        Zero-argument callable returning the Prometheus text
        exposition for ``/metrics`` (e.g. ``telemetry.
        render_prometheus``); defaults to the reader's registry's
        exposition when one is attached, else ``/metrics`` 404s.

    Use as a context manager, or :meth:`start` / :meth:`close`
    explicitly.  ``serve_forever`` runs on a daemon thread; request
    threads are daemons too, so a hung client never blocks shutdown.
    """

    daemon_threads = True

    def __init__(
        self,
        reader: "ClusterReader",
        host: str = "127.0.0.1",
        port: int = 0,
        metrics_render: Callable[[], str] | None = None,
    ) -> None:
        super().__init__((host, port), _Handler)
        self.reader = reader
        self.registry = reader._registry
        if self.registry is not None:
            self.registry.declare_histogram(
                "query_seconds", _QUERY_SECONDS_BOUNDS
            )
        if metrics_render is None and self.registry is not None:
            metrics_render = self.registry.render_prometheus
        self.metrics_render = metrics_render
        self.closing = False
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        """The bound port (useful after ``port=0``)."""
        return self.server_address[1]

    @property
    def url(self) -> str:
        """Base URL clients should hit."""
        host = self.server_address[0]
        return f"http://{host}:{self.port}"

    def start(self) -> "ClusterHTTPServer":
        """Serve on a background daemon thread; returns ``self``."""
        if self._thread is not None:
            raise ParameterError("server already started")
        self._thread = threading.Thread(
            target=self.serve_forever,
            name="cluster-httpd",
            daemon=True,
        )
        self._thread.start()
        return self

    def close(self) -> None:
        """Stop serving and release the socket (idempotent)."""
        self.closing = True
        if self._thread is not None:
            self.shutdown()
            self._thread.join(timeout=5.0)
            self._thread = None
        self.server_close()

    def __enter__(self) -> "ClusterHTTPServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def serve_http(
    reader: "ClusterReader",
    host: str = "127.0.0.1",
    port: int = 0,
    metrics_render: Callable[[], str] | None = None,
) -> ClusterHTTPServer:
    """Start a background HTTP server over ``reader``; caller closes it."""
    server = ClusterHTTPServer(
        reader, host=host, port=port, metrics_render=metrics_render
    )
    return server.start()


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.cluster.httpd``: the fleet's query daemon.

    Launched by ``cluster serve query up`` (see
    :func:`repro.cluster.serve.query_up`): binds the HTTP socket over
    a reader built by :meth:`ClusterReader.from_fleet
    <repro.cluster.query.ClusterReader.from_fleet>` (answering from the
    fleet's workers over their sockets), then — only once bound, the
    readiness convention — writes the pidfile and the ``--record``
    JSON (which carries the actually-chosen port), and serves until
    ``SIGTERM``/``SIGINT``, unlinking both files on the way out.
    """
    import argparse
    import json
    import os
    import signal

    from repro.cluster.query import ClusterReader

    parser = argparse.ArgumentParser(
        prog="repro.cluster.httpd",
        description="HTTP/SSE query daemon over a worker fleet",
    )
    parser.add_argument(
        "--fleet-dir",
        required=True,
        help="cluster storage root holding the fleet under serve/",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=0, help="0 picks a free port"
    )
    parser.add_argument(
        "--record",
        required=True,
        help="JSON record written after bind (the readiness marker)",
    )
    parser.add_argument(
        "--pidfile", required=True, help="written after bind"
    )
    parser.add_argument(
        "--worker-timeout",
        type=float,
        default=5.0,
        help="socket timeout per worker request",
    )
    args = parser.parse_args(argv)

    reader = ClusterReader.from_fleet(
        args.fleet_dir, timeout=args.worker_timeout
    )
    server = ClusterHTTPServer(reader, host=args.host, port=args.port)

    def _exit(signum: int, frame: Any) -> None:
        raise SystemExit(0)

    signal.signal(signal.SIGTERM, _exit)
    signal.signal(signal.SIGINT, _exit)
    with open(args.pidfile, "w", encoding="utf-8") as handle:
        handle.write(f"{os.getpid()}\n")
    record = {
        "version": 1,
        "pid": os.getpid(),
        "host": args.host,
        "port": server.port,
        "url": server.url,
        "fleet": args.fleet_dir,
    }
    with open(args.record, "w", encoding="utf-8") as handle:
        json.dump(record, handle, sort_keys=True, indent=2)
        handle.write("\n")
    try:
        server.serve_forever()
    except (KeyboardInterrupt, SystemExit):
        pass
    finally:
        server.closing = True
        server.server_close()
        for path in (args.record, args.pidfile):
            try:
                os.unlink(path)
            except OSError:
                pass
    return 0


if __name__ == "__main__":  # pragma: no cover - daemon entrypoint
    raise SystemExit(main())
