"""Compact serialization of counter snapshots.

The analytics motivation (§1) is storage: a system holding millions of
counters checkpoints them to disk or ships them between nodes for merging
(Remark 2.4).  This codec turns a
:class:`~repro.core.base.CounterSnapshot` into a single JSON-safe line and
back, with integrity checks:

* a format version, so future layouts can evolve;
* the algorithm name and parameters, validated on decode;
* a CRC-32 over the canonical payload, started from a per-record-kind
  seed, so truncated or corrupted records fail loudly with
  :class:`~repro.errors.StateError` instead of resurrecting a silently
  wrong counter (records from before the CRC-32 envelope, which carry
  a SplitMix64 ``"checksum"``, are still verified and read).
"""

from __future__ import annotations

import json
import zlib
from typing import Any

from repro.core.base import ApproximateCounter, CounterSnapshot
from repro.core.factory import COUNTER_TYPES
from repro.errors import StateError
from repro.rng.splitmix import mix64

__all__ = [
    "encode_snapshot",
    "decode_snapshot",
    "restore_counter",
    "encode_checksummed_line",
    "decode_checksummed_line",
]

_FORMAT_VERSION = 1


_CHECKSUM_SEED = 0xA5A5A5A5A5A5A5A5


def _canonical(body: Any) -> str:
    """The payload text a record's checksum covers."""
    return json.dumps(body, sort_keys=True, separators=(",", ":"))


def _crc_start(seed: int) -> int:
    """Fold a 64-bit record-kind seed into a CRC-32 start value.

    CRC-32 is affine in its start value, so two kinds whose folded
    seeds differ never produce the same CRC for the same payload: a
    record of one kind cannot verify as another.
    """
    return (seed ^ (seed >> 32)) & 0xFFFFFFFF


def _crc32(payload: str, seed: int) -> int:
    return zlib.crc32(payload.encode("utf-8"), _crc_start(seed))


def _legacy_checksum(payload: str, seed: int) -> int:
    """The SplitMix64 chain older records carry under ``"checksum"``."""
    h = seed
    for byte in payload.encode("utf-8"):
        h = mix64(h ^ byte)
    return h


def encode_checksummed_line(body: dict[str, Any], seed: int) -> str:
    """Wrap a JSON-safe body in the library's checksummed line framing.

    The body is canonicalized (sorted keys, no whitespace), checksummed
    with CRC-32 started from the caller's ``seed`` (distinct per record
    kind, so a record cannot be decoded as the wrong kind), and emitted
    as one ``{"crc32": ..., "payload": ...}`` JSON line — the same text
    ``json.dumps`` of that wrapper with sorted keys would produce.  All
    durable / wire formats — counter snapshots, bank checkpoints,
    migration batches, the manifest, transport frames — share this
    framing via :func:`decode_checksummed_line`.
    """
    payload = _canonical(body)
    return f'{{"crc32":{_crc32(payload, seed)},"payload":{payload}}}'


def decode_checksummed_line(
    line: str, seed: int, kind: str
) -> dict[str, Any]:
    """Unwrap and verify a :func:`encode_checksummed_line` record.

    Returns the body.  Records written before the CRC-32 envelope carry
    a SplitMix64 ``"checksum"`` instead; they are still verified and
    read, so existing store directories recover, but never written.
    Raises :class:`~repro.errors.StateError` (naming ``kind``) on
    malformed input or checksum mismatch; version checks stay with the
    caller, which owns its body schema.
    """
    try:
        wrapper = json.loads(line)
        body = wrapper["payload"]
        if "crc32" in wrapper:
            claimed, checksum = wrapper["crc32"], _crc32
        else:
            claimed, checksum = wrapper["checksum"], _legacy_checksum
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise StateError(f"malformed {kind}: {exc}") from exc
    if checksum(_canonical(body), seed) != claimed:
        raise StateError(f"{kind} checksum mismatch (corrupted record)")
    if not isinstance(body, dict):
        raise StateError(f"malformed {kind}: payload is not an object")
    return body


def encode_snapshot(snapshot: CounterSnapshot) -> str:
    """Serialize a snapshot to a single JSON line."""
    body = {
        "v": _FORMAT_VERSION,
        "algorithm": snapshot.algorithm,
        "params": dict(snapshot.params),
        "state": _jsonable(dict(snapshot.state)),
        "n": snapshot.n_increments,
    }
    return encode_checksummed_line(body, _CHECKSUM_SEED)


def decode_snapshot(line: str) -> CounterSnapshot:
    """Parse a line produced by :func:`encode_snapshot`.

    Raises :class:`~repro.errors.StateError` on malformed input, version
    mismatch, checksum mismatch, or unknown algorithm.
    """
    body = decode_checksummed_line(
        line, _CHECKSUM_SEED, kind="snapshot record"
    )
    if body.get("v") != _FORMAT_VERSION:
        raise StateError(
            f"unsupported snapshot format version {body.get('v')!r}"
        )
    algorithm = body.get("algorithm")
    if algorithm not in COUNTER_TYPES:
        raise StateError(f"unknown algorithm {algorithm!r} in snapshot")
    return CounterSnapshot(
        algorithm=algorithm,
        params=_dejsonable(body["params"]),
        state=_dejsonable(body["state"]),
        n_increments=int(body["n"]),
    )


def restore_counter(line: str, seed: int = 0) -> ApproximateCounter:
    """Decode a snapshot line and build a live counter from it.

    The counter gets a fresh random stream from ``seed`` (randomness is
    not part of the serialized state — two restored replicas should not
    share coin flips).
    """
    snapshot = decode_snapshot(line)
    cls = COUNTER_TYPES[snapshot.algorithm]
    try:
        counter = cls(**snapshot.params, seed=seed)
        counter.restore(snapshot)
    except (TypeError, ValueError) as exc:
        raise StateError(f"snapshot incompatible with {cls.__name__}: {exc}") from exc
    return counter


def _jsonable(mapping: dict[str, Any]) -> dict[str, Any]:
    """Convert tuples (epoch histories) into lists for JSON."""
    out: dict[str, Any] = {}
    for key, value in mapping.items():
        if isinstance(value, tuple):
            out[key] = list(value)
        elif isinstance(value, list):
            out[key] = [list(v) if isinstance(v, tuple) else v for v in value]
        else:
            out[key] = value
    return out


def _dejsonable(mapping: dict[str, Any]) -> dict[str, Any]:
    """Restore tuple-of-tuples shapes used by mergeable histories."""
    out: dict[str, Any] = {}
    for key, value in mapping.items():
        if key == "epoch_history" and isinstance(value, list):
            out[key] = [tuple(entry) for entry in value]
        else:
            out[key] = value
    return out
