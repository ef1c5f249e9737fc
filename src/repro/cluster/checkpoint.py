"""Whole-bank checkpoints: crash recovery for ingest nodes.

A :class:`BankCheckpoint` captures every counter in a
:class:`~repro.analytics.counter_bank.CounterBank` (via the per-counter
codec of :mod:`repro.core.codec`), the bank seed, the
:class:`~repro.cluster.node.CounterTemplate` needed to rebuild the
counters, the exact shadow counts when tracked, and arbitrary caller
metadata (node id, incarnation, events ingested).  The whole document is a
single JSON line guarded by a seeded CRC-32 (see
:func:`repro.core.codec.encode_checksummed_line`), so a truncated or
corrupted checkpoint fails loudly instead of resurrecting a silently
wrong node.  Where that line *lives* is the store's concern: the
:class:`~repro.cluster.storage.MemoryStore` keeps it in process memory
and its :class:`~repro.cluster.storage.FileStore` subclass also writes
it to an atomically-replaced file on disk.  This module defines the
record, :mod:`repro.cluster.storage` defines its durability.

:func:`transfer_state` and :func:`install_transfer_state` move a node's
*full* state between processes: a checkpoint line plus the volatile
half (buffer and lifetime stats) a checkpoint does not carry.

Restore semantics
-----------------
``restore(seed=...)`` rebuilds the bank deterministically: counters are
materialized in sorted key order (each getting the bank's usual derived
per-key stream) and their serialized state installed.  Two restores of the
same checkpoint at the same seed are bit-identical, and feeding both the
same post-restore stream yields identical estimates — the determinism
tier-1 tests pin down.  Pass a *different* seed per incarnation (the
simulation derives one from the node's recovery count) so a restored
replica does not share future coin flips with its dead predecessor, the
same convention as :func:`repro.core.codec.restore_counter`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.analytics.counter_bank import CounterBank
from repro.cluster.node import CounterTemplate, IngestNode
from repro.core.base import CounterSnapshot
from repro.core.codec import (
    decode_checksummed_line,
    decode_snapshot,
    encode_checksummed_line,
    encode_snapshot,
)
from repro.errors import StateError

__all__ = ["BankCheckpoint", "install_transfer_state", "transfer_state"]

_FORMAT_VERSION = 1
_CHECKSUM_SEED = 0xC1E5CB0A75E57A11


@dataclass(frozen=True)
class BankCheckpoint:
    """A recoverable snapshot of one node's counter bank.

    Attributes
    ----------
    template:
        Recipe to rebuild each counter.
    seed:
        The captured bank's seed (default restore seed).
    snapshots:
        Per-key counter snapshots.
    truth:
        Exact shadow counts (``None`` when the bank did not track truth).
    meta:
        Caller metadata carried verbatim (node id, incarnation, ...).
    topology:
        Optional cluster-topology stamp at capture time — a mapping with
        ``epoch`` (router topology epoch), ``nodes`` (sorted live node
        ids), and ``routing`` (strategy name).  ``None`` for standalone
        bank checkpoints; the simulation always records it so a restored
        node can detect that it woke up under a stale routing view
        (its checkpoint epoch ≠ the router's current epoch).
    """

    template: CounterTemplate
    seed: int
    snapshots: Mapping[str, CounterSnapshot]
    truth: Mapping[str, int] | None = None
    meta: Mapping[str, Any] = field(default_factory=dict)
    topology: Mapping[str, Any] | None = None

    # ------------------------------------------------------------------
    # capture / restore
    # ------------------------------------------------------------------
    @classmethod
    def capture(
        cls,
        bank: CounterBank,
        template: CounterTemplate,
        meta: Mapping[str, Any] | None = None,
        topology: Mapping[str, Any] | None = None,
    ) -> "BankCheckpoint":
        """Snapshot every counter (and shadow count) in ``bank``."""
        snapshots = {
            key: counter.snapshot() for key, counter in bank.items()
        }
        truth = (
            {key: bank.truth(key) for key in snapshots}
            if bank.tracks_truth
            else None
        )
        return cls(
            template=template,
            seed=bank.seed,
            snapshots=snapshots,
            truth=truth,
            meta=dict(meta or {}),
            topology=dict(topology) if topology is not None else None,
        )

    def restore(self, seed: int | None = None) -> CounterBank:
        """Rebuild a live bank from this checkpoint.

        ``seed`` defaults to the captured bank's seed; recovery paths
        should pass an incarnation-derived seed (see module docstring).
        """
        bank = CounterBank(
            self.template.build,
            seed=self.seed if seed is None else seed,
            track_truth=self.truth is not None,
        )
        for key in sorted(self.snapshots):
            bank.materialize(key).restore(self.snapshots[key])
            if self.truth is not None:
                bank.set_truth(key, self.truth[key])
        return bank

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def encode(self) -> str:
        """Serialize to a single checksummed JSON line."""
        body = {
            "v": _FORMAT_VERSION,
            "template": self.template.to_dict(),
            "seed": self.seed,
            "counters": {
                key: encode_snapshot(snap)
                for key, snap in sorted(self.snapshots.items())
            },
            "truth": dict(self.truth) if self.truth is not None else None,
            "meta": dict(self.meta),
            "topology": (
                dict(self.topology) if self.topology is not None else None
            ),
        }
        return encode_checksummed_line(body, _CHECKSUM_SEED)

    @classmethod
    def decode(cls, line: str) -> "BankCheckpoint":
        """Parse a line produced by :meth:`encode`.

        Raises :class:`~repro.errors.StateError` on malformed input,
        version mismatch, or checksum mismatch (including corruption in
        any embedded counter record).
        """
        body = decode_checksummed_line(
            line, _CHECKSUM_SEED, kind="bank checkpoint"
        )
        if body.get("v") != _FORMAT_VERSION:
            raise StateError(
                f"unsupported bank checkpoint version {body.get('v')!r}"
            )
        try:
            template = CounterTemplate.from_dict(body["template"])
            snapshots = {
                key: decode_snapshot(record)
                for key, record in body["counters"].items()
            }
            truth = body["truth"]
            return cls(
                template=template,
                seed=int(body["seed"]),
                snapshots=snapshots,
                truth=(
                    {k: int(v) for k, v in truth.items()}
                    if truth is not None
                    else None
                ),
                meta=dict(body.get("meta", {})),
                topology=(
                    dict(body["topology"])
                    if body.get("topology") is not None
                    else None
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise StateError(f"malformed bank checkpoint: {exc}") from exc

    def __len__(self) -> int:
        return len(self.snapshots)


def transfer_state(node: IngestNode) -> dict[str, Any]:
    """``node``'s full state as wire fields: ``line`` (its bank's
    checkpoint line) and ``volatile`` (buffer and lifetime stats)."""
    line = BankCheckpoint.capture(
        node.bank, node.template, meta={"transfer": True}
    ).encode()
    return {"line": line, "volatile": node.export_volatile()}


def install_transfer_state(
    node: IngestNode, state: Mapping[str, Any]
) -> None:
    """Make ``node`` an exact copy of a :func:`transfer_state` capture
    (the bank restores on the captured seed)."""
    node.adopt_bank(BankCheckpoint.decode(state["line"]).restore())
    node.install_volatile(state["volatile"])
