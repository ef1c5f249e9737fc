"""Per-node worker subprocess: one `IngestNode` behind the wire protocol.

``python -m repro.cluster.worker`` is the process-deployment unit of the
cluster: it owns exactly one :class:`~repro.cluster.node.IngestNode` and
services :mod:`repro.cluster.transport` frames until told to shut down.
Two transports are supported:

* **Pipe mode** (default) — frames arrive on stdin and replies leave on
  stdout; this is how :class:`~repro.cluster.pipeline.ProcessPlan`
  drives a short-lived fleet.  Stdout belongs to the protocol, so the
  worker never prints; diagnostics go to stderr.
* **Socket mode** (``--listen PATH``) — the worker binds a Unix socket
  and serves one coordinator connection at a time, accepting a new one
  when the previous coordinator detaches.  This is the long-running
  daemon behind ``repro.cli cluster serve`` and the socket that
  ``ClusterReader.from_fleet`` reads; ``--init-json`` carries the
  ``init`` frame body, applied before the socket is bound.
  ``--pidfile`` records the worker's pid once the socket is ready,
  which the serve lifecycle (``up``/``ps``/``down``) uses as its
  readiness and liveness marker.

The worker is deliberately *stateless with respect to durability*: the
coordinator owns the write-ahead log, the checkpoint store, and the
manifest, exactly as in the in-process plans — so `recover_cluster`
and the torn-fence protocol are untouched by where the bank lives.  A
worker holds only the live compute state (bank + coalescing buffer);
the coordinator pulls it into its mirror node (``snapshot_request``)
whenever it checkpoints, and computes every durable record there,
never touching disk here.

Determinism: a worker built from the same ``init`` parameters performs
exactly the operations the serial loop would perform on that node —
same submit order (frames per node arrive in stream order), same flush
points, same migration-derived counter seeds — so on ``exact``
templates a process-deployed cluster is bit-identical to the serial
reference (pinned by ``tests/cluster/test_pipeline.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import socket
import sys
import time
from typing import Any, BinaryIO

from repro.cluster.checkpoint import install_transfer_state, transfer_state
from repro.cluster.node import IngestNode
from repro.cluster.rebalance import MigrationBatch, absorb_batch
from repro.cluster.transport import read_frame, write_frame
from repro.errors import StateError
from repro.obs.timers import StageTimer

__all__ = ["NodeWorker", "main"]


class NodeWorker:
    """Frame handlers around one ingest node.

    One instance serves one worker process (either transport).  The
    node is built by :meth:`handle_init`: from the first ``init`` frame
    (pipe fleets, where the coordinator knows the parameters) or from
    ``--init-json`` before the socket is bound (socket daemons).
    """

    def __init__(self) -> None:
        self.node: IngestNode | None = None
        #: wall-clock stage timings, purely observational; the
        #: coordinator's telemetry facade discards them when disabled.
        self.timer = StageTimer()

    # ------------------------------------------------------------------
    # handlers (one per request frame type)
    # ------------------------------------------------------------------
    def _require_node(self) -> IngestNode:
        if self.node is None:
            raise StateError("worker received a node frame before init")
        return self.node

    def handle_init(self, body: dict[str, Any]) -> dict[str, Any]:
        """Build the node from its :meth:`~repro.cluster.node.IngestNode.
        init_params`, bit-identical to the coordinator's — RNG state
        included."""
        self.node = IngestNode.from_init(body)
        self.timer = StageTimer()
        return {"type": "ok"}

    def handle_deliver_batch(
        self, body: dict[str, Any]
    ) -> dict[str, Any] | None:
        """Apply one routed batch in order (pipelined: no reply)."""
        node = self._require_node()
        events = body["events"]
        started = time.perf_counter()
        node.submit_counts((str(key), int(count)) for key, count in events)
        self.timer.add(
            "bank_consume", time.perf_counter() - started, len(events)
        )
        return None

    def handle_drain(self, body: dict[str, Any]) -> dict[str, Any]:
        """Sync point: every prior frame has been applied."""
        node = self._require_node()
        return {
            "type": "drain_ack",
            "node": node.node_id,
            "pending": node.pending,
            "events_ingested": node.events_ingested,
        }

    def handle_snapshot_request(
        self, body: dict[str, Any]
    ) -> dict[str, Any]:
        """Ship the node's full state: checkpoint line + volatile half.

        With ``flush=true`` the bank is flushed first — the pull that
        syncs a coordinator mirror, landing at exactly the stream
        position where the serial loop flushes (a checkpoint fence,
        window collapse, migration planning, end of run);
        ``flush=false`` is a pure read (``serve status``).
        """
        node = self._require_node()
        if body.get("flush"):
            node.flush()
        return {
            "type": "snapshot_reply",
            "node": node.node_id,
            **transfer_state(node),
        }

    def handle_adopt_state(self, body: dict[str, Any]) -> dict[str, Any]:
        """Install a full node state pushed by the coordinator.

        Used right after ``init`` (a spawned worker starts as a copy
        of its coordinator node: fresh, recovered from checkpoint + WAL
        replay, or carrying an earlier run) and after a window
        collapse (the reset, empty bank).
        """
        install_transfer_state(self._require_node(), body)
        return {"type": "ok"}

    def handle_migrate_out(self, body: dict[str, Any]) -> dict[str, Any]:
        """Drain the given keys out of this node (migration source).

        The coordinator's :class:`~repro.cluster.rebalance.
        MigrationBatch` line, computed from its mirror, is the wire
        record the target absorbs; the source only lets the keys go.
        """
        self._require_node().drain(str(key) for key in body["keys"])
        return {"type": "ok"}

    def handle_absorb(self, body: dict[str, Any]) -> dict[str, Any]:
        """Merge one migration batch line in (migration target).

        Counters restore on the same ``(seed, epoch, key)``-derived
        streams as the in-process rebalance, so worker and mirror
        absorb identically.
        """
        node = self._require_node()
        batch = MigrationBatch.decode(body["line"])
        absorbed = absorb_batch(batch, node, seed=int(body["seed"]))
        return {"type": "ok", "absorbed": absorbed}

    def handle_metrics_pull(self, body: dict[str, Any]) -> dict[str, Any]:
        """This worker's stage-timing snapshot."""
        return {"type": "metrics_reply", "stages": self.timer.snapshot()}

    def handle_ping(self, body: dict[str, Any]) -> dict[str, Any]:
        """Liveness probe with a small status payload (serve status)."""
        node = self.node
        return {
            "type": "pong",
            "pid": os.getpid(),
            "node": node.node_id if node is not None else None,
            "keys": len(node.bank) if node is not None else 0,
            "pending": node.pending if node is not None else 0,
            "events_ingested": (
                node.events_ingested if node is not None else 0
            ),
        }

    # ------------------------------------------------------------------
    # frame service loop
    # ------------------------------------------------------------------
    def serve(self, reader: BinaryIO, writer: BinaryIO) -> str:
        """Service frames until shutdown or EOF.

        Returns ``"shutdown"`` (clean protocol exit) or ``"detached"``
        (the coordinator closed its end).  A handler exception is
        reported back as an ``error`` frame and ends the loop — the
        worker's state can no longer be trusted to match the
        coordinator's, so dying loudly beats diverging silently.
        """
        handlers = {
            "init": self.handle_init,
            "deliver_batch": self.handle_deliver_batch,
            "drain": self.handle_drain,
            "snapshot_request": self.handle_snapshot_request,
            "adopt_state": self.handle_adopt_state,
            "migrate_out": self.handle_migrate_out,
            "absorb": self.handle_absorb,
            "metrics_pull": self.handle_metrics_pull,
            "ping": self.handle_ping,
        }
        while True:
            body = read_frame(reader)
            if body is None:
                return "detached"
            frame_type = body["type"]
            if frame_type == "shutdown":
                write_frame(writer, "bye")
                return "shutdown"
            handler = handlers.get(frame_type)
            try:
                if handler is None:
                    raise StateError(
                        f"worker cannot service {frame_type!r} frames"
                    )
                reply = handler(body)
            except Exception as exc:
                write_frame(
                    writer,
                    "error",
                    message=f"{type(exc).__name__}: {exc}",
                )
                raise
            if reply is not None:
                fields = {
                    key: value
                    for key, value in reply.items()
                    if key != "type"
                }
                write_frame(writer, reply["type"], **fields)


def _serve_pipe(worker: NodeWorker) -> int:
    """Pipe transport: frames on stdin, replies on stdout."""
    reader = sys.stdin.buffer
    writer = sys.stdout.buffer
    try:
        worker.serve(reader, writer)
    except Exception as exc:
        print(f"repro-worker: {exc}", file=sys.stderr)
        return 1
    return 0


def _serve_socket(
    worker: NodeWorker, listen_path: str, pidfile: str | None
) -> int:
    """Unix-socket transport: accept coordinators until shutdown."""
    server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        if os.path.exists(listen_path):
            os.unlink(listen_path)
        server.bind(listen_path)
        server.listen(1)
        if pidfile is not None:
            # Written only after the socket is live, so the pidfile
            # doubles as the readiness marker `cluster serve up` polls.
            with open(pidfile, "w", encoding="utf-8") as handle:
                handle.write(f"{os.getpid()}\n")
        while True:
            conn, _ = server.accept()
            reader = conn.makefile("rb")
            writer = conn.makefile("wb")
            try:
                outcome = worker.serve(reader, writer)
            except Exception as exc:
                print(f"repro-worker: {exc}", file=sys.stderr)
                return 1
            finally:
                for stream in (writer, reader):
                    try:
                        stream.close()
                    except OSError:  # pragma: no cover - teardown race
                        pass
                conn.close()
            if outcome == "shutdown":
                return 0
    finally:
        server.close()
        for path in (listen_path, pidfile):
            if path is not None and os.path.exists(path):
                try:
                    os.unlink(path)
                except OSError:  # pragma: no cover - cleanup race
                    pass


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cluster.worker",
        description=(
            "Per-node cluster worker: services repro.cluster.transport "
            "frames over stdin/stdout (default) or a Unix socket."
        ),
    )
    parser.add_argument(
        "--listen",
        metavar="SOCKET",
        default=None,
        help="serve a Unix socket at this path instead of stdin/stdout",
    )
    parser.add_argument(
        "--pidfile",
        metavar="PATH",
        default=None,
        help="write the worker pid here once the socket is ready",
    )
    parser.add_argument(
        "--init-json",
        metavar="JSON",
        default=None,
        help="body of the init frame, applied before serving (daemon mode)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """Worker entrypoint; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    worker = NodeWorker()
    if args.init_json is not None:
        worker.handle_init(json.loads(args.init_json))
    if args.listen is not None:
        return _serve_socket(worker, args.listen, args.pidfile)
    return _serve_pipe(worker)


if __name__ == "__main__":  # pragma: no cover - subprocess entrypoint
    sys.exit(main())
