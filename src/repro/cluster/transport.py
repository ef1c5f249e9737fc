"""Wire protocol for the process deployment: checksummed, framed messages.

The :class:`~repro.cluster.pipeline.ProcessPlan` coordinator and the
per-node worker subprocesses (:mod:`repro.cluster.worker`) speak a small
message protocol over byte streams (stdin/stdout pipes, or a Unix socket
for ``cluster serve`` daemons).  Every message is one *frame*:

    ``[4-byte big-endian payload length][payload bytes]``

The payload is the UTF-8 encoding of a checksummed JSON line produced by
:func:`repro.core.codec.encode_checksummed_line` — the same envelope the
durable records (checkpoints, migration batches, the manifest) already
use, a CRC-32 seeded per record kind — so a truncated pipe, a bit
flip in flight, or a foreign speaker raises
:class:`~repro.errors.StateError` instead of corrupting a node.
The decoded body always carries ``{"v": <version>, "type": <name>}``
plus type-specific fields; unknown versions and unknown message types
are refused loudly.

Message types
-------------
``init``/``ok``/``error`` bring a worker up and report failures;
``deliver_batch`` ships routed events (pipelined — no reply — so the
hot path pays one frame per ``delivery_batch`` events, not one
round-trip per event); ``drain``/``drain_ack`` is the bare sync
handshake a ``cluster serve`` client sends (a worker services frames in
order, so the ack proves every prior batch has been applied);
``snapshot_request``/``snapshot_reply`` and
``adopt_state`` move a node's full state (bank checkpoint line +
volatile buffer and lifetime stats) between coordinator and worker —
a ``snapshot_request`` with ``flush=true`` is the pull that syncs the
coordinator's mirror before it checkpoints or runs a barrier;
``migrate_out`` (the source drops the moved keys) and ``absorb`` (the
target merges the coordinator's
:class:`~repro.cluster.rebalance.MigrationBatch` wire line) carry live
key migration;
``metrics_pull``/``metrics_reply`` collects a worker's stage-timing
snapshot; ``ping``/``pong`` is the liveness probe ``cluster serve
status`` uses; ``shutdown``/``bye`` ends a worker cleanly.

Framing is deliberately independent of the event loop: frames can be
written to any ``.write()``/``.flush()`` object and read from any
``.read()`` object, including sockets via :meth:`FrameStream.
from_socket`.  :func:`read_frame` tolerates arbitrarily fragmented
reads (a ``read(n)`` returning fewer bytes than asked is retried), so
interleaved partial delivery — the normal case on a busy pipe — never
desyncs the stream; only genuine mid-frame EOF is an error.
"""

from __future__ import annotations

import socket
import struct
from typing import Any, BinaryIO, Mapping

from repro.core.codec import (
    decode_checksummed_line,
    encode_checksummed_line,
)
from repro.errors import ParameterError, StateError

__all__ = [
    "FRAME_TYPES",
    "FRAME_VERSION",
    "MAX_FRAME_BYTES",
    "FrameStream",
    "decode_frame_payload",
    "encode_frame",
    "read_frame",
    "write_frame",
]

FRAME_VERSION = 1
_FRAME_CHECKSUM_SEED = 0x9B1D77A446524D45  # low bits spell "FRME"
_LENGTH = struct.Struct(">I")

#: Upper bound on one frame's payload.  A length prefix past this is a
#: corrupt or foreign stream (a real frame is at most one node's full
#: bank snapshot), so the reader fails loudly instead of trying to
#: allocate garbage.
MAX_FRAME_BYTES = 1 << 30

#: Every message the protocol speaks.  Requests and replies share the
#: registry: a worker services requests in order and a coordinator
#: validates each reply's type, so an unknown name on either side is a
#: protocol error, never a silent drop.
FRAME_TYPES = frozenset(
    {
        "init",
        "ok",
        "error",
        "deliver_batch",
        "drain",
        "drain_ack",
        "snapshot_request",
        "snapshot_reply",
        "adopt_state",
        "migrate_out",
        "absorb",
        "metrics_pull",
        "metrics_reply",
        "ping",
        "pong",
        "shutdown",
        "bye",
    }
)


def encode_frame(frame_type: str, **fields: Any) -> bytes:
    """One wire frame: length prefix + checksummed JSON payload.

    >>> frame = encode_frame("drain")
    >>> decode_frame_payload(frame[4:])["type"]
    'drain'
    """
    if frame_type not in FRAME_TYPES:
        known = ", ".join(sorted(FRAME_TYPES))
        raise ParameterError(
            f"unknown frame type {frame_type!r}; known: {known}"
        )
    body = {"v": FRAME_VERSION, "type": frame_type, **fields}
    payload = encode_checksummed_line(body, _FRAME_CHECKSUM_SEED).encode(
        "utf-8"
    )
    if len(payload) > MAX_FRAME_BYTES:
        raise StateError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte bound"
        )
    return _LENGTH.pack(len(payload)) + payload


def decode_frame_payload(payload: bytes) -> dict[str, Any]:
    """Validate and decode one frame payload into its message body.

    Raises :class:`~repro.errors.StateError` on checksum mismatch (any
    bit flip), version mismatch, or an unknown message type.
    """
    try:
        text = payload.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise StateError(f"transport frame is not UTF-8: {exc}") from exc
    body = decode_checksummed_line(
        text, _FRAME_CHECKSUM_SEED, kind="transport frame"
    )
    if body.get("v") != FRAME_VERSION:
        raise StateError(
            f"unsupported transport frame version {body.get('v')!r} "
            f"(this side speaks {FRAME_VERSION})"
        )
    frame_type = body.get("type")
    if frame_type not in FRAME_TYPES:
        raise StateError(
            f"unknown transport frame type {frame_type!r}"
        )
    return body


def _read_exact(reader: BinaryIO, n: int) -> bytes | None:
    """Read exactly ``n`` bytes, retrying partial reads.

    Returns ``None`` on clean EOF *before the first byte* (the peer
    closed between frames); raises :class:`~repro.errors.StateError`
    when the stream ends mid-read (a truncated frame).
    """
    chunks: list[bytes] = []
    got = 0
    while got < n:
        chunk = reader.read(n - got)
        if not chunk:
            if got == 0:
                return None
            raise StateError(
                f"transport stream truncated: expected {n} bytes, "
                f"got {got} before EOF"
            )
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def read_frame(reader: BinaryIO) -> dict[str, Any] | None:
    """Read one frame; ``None`` on clean EOF at a frame boundary.

    Partial reads are retried until the full frame arrives, so a
    fragmented pipe never desyncs the protocol; truncation inside a
    frame and corrupt length prefixes raise
    :class:`~repro.errors.StateError`.
    """
    prefix = _read_exact(reader, _LENGTH.size)
    if prefix is None:
        return None
    (length,) = _LENGTH.unpack(prefix)
    if length > MAX_FRAME_BYTES:
        raise StateError(
            f"transport frame claims {length} bytes "
            f"(bound {MAX_FRAME_BYTES}): corrupt or foreign stream"
        )
    payload = _read_exact(reader, length)
    if payload is None:
        raise StateError(
            "transport stream truncated: EOF before frame payload"
        )
    return decode_frame_payload(payload)


def write_frame(writer: BinaryIO, frame_type: str, **fields: Any) -> None:
    """Encode and write one frame, flushing the stream."""
    writer.write(encode_frame(frame_type, **fields))
    writer.flush()


class FrameStream:
    """A bidirectional frame channel over a reader/writer byte pair.

    Wraps the coordinator side of a worker's pipes, or either side of a
    Unix-socket connection (:meth:`from_socket`).  ``recv`` returns
    ``None`` on clean EOF; :meth:`expect` additionally enforces the
    reply type and surfaces worker-reported ``error`` frames as
    :class:`~repro.errors.StateError`.
    """

    def __init__(self, reader: BinaryIO, writer: BinaryIO) -> None:
        self._reader = reader
        self._writer = writer

    @classmethod
    def from_socket(cls, sock: socket.socket) -> "FrameStream":
        """A stream over one connected socket (owns two file objects)."""
        return cls(sock.makefile("rb"), sock.makefile("wb"))

    def send(self, frame_type: str, **fields: Any) -> None:
        """Write one frame (no reply expected by this call)."""
        write_frame(self._writer, frame_type, **fields)

    def recv(self) -> dict[str, Any] | None:
        """Read the next frame body; ``None`` on clean EOF."""
        return read_frame(self._reader)

    def expect(self, frame_type: str) -> dict[str, Any]:
        """Read one frame and require it to be ``frame_type``.

        An ``error`` frame raises with the peer's message; EOF and any
        other type are protocol errors.
        """
        body = self.recv()
        if body is None:
            raise StateError(
                f"transport peer closed while waiting for "
                f"{frame_type!r}"
            )
        if body["type"] == "error":
            raise StateError(
                f"transport peer reported: {body.get('message', '?')}"
            )
        if body["type"] != frame_type:
            raise StateError(
                f"transport protocol violation: expected "
                f"{frame_type!r}, got {body['type']!r}"
            )
        return body

    def request(
        self, frame_type: str, reply_type: str, **fields: Any
    ) -> dict[str, Any]:
        """One round-trip: send ``frame_type``, expect ``reply_type``."""
        self.send(frame_type, **fields)
        return self.expect(reply_type)

    def close(self) -> None:
        """Close both directions (idempotent, errors suppressed)."""
        for stream in (self._writer, self._reader):
            try:
                stream.close()
            except OSError:  # pragma: no cover - best-effort cleanup
                pass


def frame_summary(body: Mapping[str, Any]) -> str:
    """Compact one-line description of a frame body (logs and errors)."""
    fields = ", ".join(
        sorted(key for key in body if key not in ("v", "type"))
    )
    return f"{body.get('type', '?')}({fields})"
