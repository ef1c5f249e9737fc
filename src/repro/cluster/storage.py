"""Durable checkpoint stores and the segmented write-ahead log.

Recovery of any node is its latest checkpoint plus a replay of the
events delivered since that checkpoint.  This module holds both halves:

* :class:`CheckpointStore` — where the latest checkpoint line per node
  lives, plus the cluster *manifest* (topology stamp, incarnations,
  config echo) that recovery needs to rebuild a simulation.  Two
  backends ship:

  * :class:`MemoryStore` — process memory only; ``load`` (cold
    recovery) is impossible.
  * :class:`FileStore` — one directory per cluster.  Checkpoint lines
    and the manifest are written atomically (write to a temp file,
    then ``os.replace``) so a crash mid-write can never leave a torn
    record, and every line is checksummed so corruption fails loudly
    with :class:`~repro.errors.StateError`.  A simulation persisted
    this way can be re-opened from disk with
    :func:`~repro.cluster.simulation.recover_cluster`.

* :class:`SegmentedLog` — the write-ahead log each store owns: per
  node, the list of events delivered since the node's last checkpoint
  fence.  Once a segment's worth of events is retained,
  :meth:`~repro.cluster.simulation.ClusterSimulation.fence_due`
  reports it and the simulation takes a forced checkpoint.  Replay
  cost is therefore proportional to ``min(checkpoint_every, segment
  size)`` — never to stream length.  The file store's log keeps the
  same events on disk as a chain of segment files of that size.

Store layout of a :class:`FileStore` directory::

    <dir>/manifest.json            # checksummed topology + config stamp
    <dir>/checkpoints/node-<id>.ckpt   # latest checkpoint line per node
    <dir>/wal/node-<id>/seg-<n>.log    # one delivered event per line

Determinism
-----------
The storage backend must never change *what* a simulation computes, only
where its durable state lives: the same config seed and event stream
produce bit-identical results on :class:`MemoryStore` and
:class:`FileStore` (a tier-1 invariant).  Both therefore share the same
in-memory :class:`SegmentedLog` fence logic; the file backend only adds
persistence side effects.
"""

from __future__ import annotations

import abc
import json
import os
import pathlib
import shutil
import time
from typing import IO, Any, Mapping

from repro.core.codec import (
    decode_checksummed_line,
    encode_checksummed_line,
)
from repro.errors import ParameterError, StateError
from repro.stream.workload import KeyedEvent

__all__ = [
    "SegmentedLog",
    "CheckpointStore",
    "MemoryStore",
    "FileStore",
    "STORAGE_BACKENDS",
    "make_store",
    "encode_event",
    "decode_event",
]

_MANIFEST_VERSION = 1
_MANIFEST_CHECKSUM_SEED = 0x5AFE_C0DE_D15C_0001


def encode_event(event: KeyedEvent) -> str:
    """One WAL line for one delivered event.

    The text of ``json.dumps([key, count], separators=(",", ":"))``,
    built without that call's per-call encoder construction.

    >>> encode_event(KeyedEvent("page-7", 3))
    '["page-7",3]'
    """
    return f"[{json.dumps(event.key)},{event.count:d}]"


def decode_event(line: str) -> KeyedEvent:
    """Inverse of :func:`encode_event`; loud on corruption.

    >>> decode_event('["page-7",3]')
    KeyedEvent(key='page-7', count=3)
    >>> decode_event('["torn')
    Traceback (most recent call last):
        ...
    repro.errors.StateError: corrupt WAL record '["torn'
    """
    try:
        key, count = json.loads(line)
        return KeyedEvent(str(key), int(count))
    except (json.JSONDecodeError, TypeError, ValueError) as exc:
        raise StateError(f"corrupt WAL record {line!r}") from exc


# ----------------------------------------------------------------------
# write-ahead log
# ----------------------------------------------------------------------
class SegmentedLog:
    """Per-node durable log of events delivered since the last fence.

    The simulation appends every routed event before handing it to the
    node, replays the log during crash recovery, and *fences* the log
    (truncating it) whenever the node checkpoints — so the log always
    holds exactly the events a recovery must redeliver on top of the
    last checkpoint.  Each node's log is one list of retained events
    plus the sequence of the first of them.

    ``segment_events=None`` never asks for a fence: the log only ever
    shrinks at a checkpoint.  With a limit, :meth:`needs_fence` turns
    true once ``segment_events`` events are retained; the simulation
    makes the same retained-events test in
    :meth:`~repro.cluster.simulation.ClusterSimulation.fence_due` and
    takes a forced checkpoint, whose fence truncates the log.  Retained
    log length is therefore bounded by the segment size even when
    periodic checkpointing is disabled.  On disk the same limit is the
    size of each segment file (:class:`_FileSegmentedLog`).

    Threading contract (the parallel ingest pipeline relies on it):
    :meth:`append` for a given ``node_id`` is called only from the one
    worker thread currently confined to that node, and appends for
    distinct nodes touch disjoint per-node state — so concurrent
    appends to *different* nodes need no locking.  Every other
    operation (``register`` / ``fence`` / ``replay`` / ``drop`` /
    ``sequence`` / ``truncate_through``) runs on the coordinator
    thread after a drain handshake for the node it operates on — no
    append in flight *for that node*; appends to **other** nodes may
    still be running (a per-node checkpoint drains only its node).
    Every piece of state these operations touch is therefore
    partitioned by node id.  See :mod:`repro.cluster.pipeline`.

    >>> log = SegmentedLog(segment_events=2)
    >>> log.register(0)
    >>> for key in ("a", "b", "c"):
    ...     log.append(0, KeyedEvent(key))
    >>> log.retained_events(0)
    3
    >>> log.needs_fence(0)  # a full segment's worth awaits a fence
    True
    >>> [event.key for event in log.replay(0)]
    ['a', 'b', 'c']
    >>> log.fence(0)  # checkpoint taken: the log truncates
    >>> log.retained_events(0), log.needs_fence(0), log.sequence(0)
    (0, False, 3)
    """

    def __init__(self, segment_events: int | None = None) -> None:
        if segment_events is not None and segment_events < 1:
            raise ParameterError(
                f"segment_events must be >= 1 or None, got {segment_events}"
            )
        self._segment_events = segment_events
        #: Telemetry facade (``repro.obs.Telemetry``) or None; attached
        #: by the owning store, never consulted for any WAL decision.
        self._telemetry: Any = None
        #: node id -> retained events, oldest first.
        self._events: dict[int, list[KeyedEvent]] = {}
        #: node id -> sequence of the first retained event.
        self._base_seq: dict[int, int] = {}
        #: node id -> (sequence counted through, serialized bytes of the
        #: retained events before it): :meth:`storage_bytes` encodes
        #: only the events appended since its last call.
        self._byte_tally: dict[int, tuple[int, int]] = {}

    @property
    def segment_events(self) -> int | None:
        """Events per segment (``None`` = one unbounded segment)."""
        return self._segment_events

    def attach_telemetry(self, telemetry: Any) -> None:
        """Point WAL instrumentation at a telemetry facade.

        Purely observational: the log's segment/fence decisions never
        read from it, so attaching (or not) cannot change a run.
        """
        self._telemetry = telemetry

    def _node_events(self, node_id: int) -> list[KeyedEvent]:
        try:
            return self._events[node_id]
        except KeyError:
            raise StateError(
                f"node {node_id} is not registered with the WAL"
            ) from None

    def register(self, node_id: int) -> None:
        """Start tracking ``node_id`` (idempotent)."""
        if node_id in self._events:
            return
        self._events[node_id] = []
        self._base_seq[node_id] = 0
        self._byte_tally[node_id] = (0, 0)
        self._persist_register(node_id)

    def append(self, node_id: int, event: KeyedEvent) -> None:
        """Record one delivered event."""
        self._node_events(node_id).append(event)
        self._persist_append(node_id, event)

    def replay(self, node_id: int) -> list[KeyedEvent]:
        """Events delivered since the node's last fence, in order."""
        return list(self._node_events(node_id))

    def fence(self, node_id: int) -> None:
        """Checkpoint taken: truncate everything logged so far."""
        seq = self.sequence(node_id)
        self._events[node_id].clear()
        self._base_seq[node_id] = seq
        self._byte_tally[node_id] = (seq, 0)
        self._persist_fence(node_id)

    def drop(self, node_id: int) -> None:
        """Stop tracking a retired node and discard its log."""
        self._node_events(node_id)
        del self._events[node_id]
        del self._base_seq[node_id]
        del self._byte_tally[node_id]
        self._persist_drop(node_id)

    def retained_events(self, node_id: int) -> int:
        """Number of events currently retained for ``node_id``."""
        return len(self._node_events(node_id))

    def sequence(self, node_id: int) -> int:
        """Lifetime append count — the fence position a checkpoint covers.

        A checkpoint taken *now* covers every event appended so far, so
        recording ``sequence(node_id)`` in the checkpoint lets recovery
        discard any log entry the checkpoint already includes (see
        :meth:`truncate_through`), even if the process died between
        writing the checkpoint and fencing the log.
        """
        return len(self._node_events(node_id)) + self._base_seq[node_id]

    def truncate_through(self, node_id: int, seq: int) -> None:
        """Drop retained events with sequence below ``seq``.

        The recovery-side half of the torn-fence protocol: replaying on
        top of a checkpoint that records fence position ``seq`` must
        skip events the checkpoint already covers, or they would count
        twice.
        """
        events = self._node_events(node_id)
        if seq > self.sequence(node_id):
            # The sequence bookkeeping was reconstructed from segment
            # files that a torn fence partially deleted, so it lags the
            # checkpoint — which is authoritative: everything retained
            # is covered by it.  Re-fence at the checkpoint's sequence
            # so future appends (and their persisted segment names)
            # continue from the true position instead of recycling
            # covered sequence numbers, which a later recovery would
            # truncate away as if they were old events.
            events.clear()
            self._base_seq[node_id] = seq
            self.fence(node_id)
            return
        drop = seq - self._base_seq[node_id]
        if drop <= 0:
            return
        # Disk segments are left alone: a later fence deletes them, and
        # a re-load re-applies this same truncation from the checkpoint.
        del events[:drop]
        self._base_seq[node_id] = seq
        self._byte_tally[node_id] = (seq, 0)  # recount the survivors

    def needs_fence(self, node_id: int) -> bool:
        """True once the retained log has reached a full segment's worth.

        Measured in *events retained*, not segment files: a partial
        segment re-loaded from disk after a restart must not trigger a
        spurious fence checkpoint, so merely re-opening a store never
        rewrites its state.
        """
        if self._segment_events is None:
            return False
        return self.retained_events(node_id) >= self._segment_events

    def storage_bytes(self) -> int:
        """Retained log size, measured as its serialized line bytes.

        Each node keeps a running total; a call encodes only the events
        appended since the previous one, the newest ``fresh`` retained.
        """
        total = 0
        for node_id, events in self._events.items():
            counted_through, counted = self._byte_tally[node_id]
            fresh = self._base_seq[node_id] + len(events) - counted_through
            if fresh:
                counted += sum(
                    len(encode_event(event)) + 1  # trailing newline
                    for event in events[-fresh:]
                )
                self._byte_tally[node_id] = (counted_through + fresh, counted)
            total += counted
        return total

    # Persistence hooks — no-ops for the in-memory log; the file-backed
    # subclass overrides them.  The log itself is identical across
    # backends, which is what keeps runs bit-reproducible no matter
    # where it lives.
    def _persist_register(self, node_id: int) -> None:
        pass

    def _persist_append(self, node_id: int, event: KeyedEvent) -> None:
        pass

    def _persist_fence(self, node_id: int) -> None:
        pass

    def _persist_drop(self, node_id: int) -> None:
        pass

    def close(self) -> None:
        """Release any backend resources (no-op in memory)."""


class _FileSegmentedLog(SegmentedLog):
    """File-backed :class:`SegmentedLog`: one directory per node.

    A node's retained log is a chain of segment files, each one
    append-only file of :func:`encode_event` lines, flushed per append
    so a recovery process sees every delivered event.  The active file
    seals after ``segment_events`` lines and the next one opens; a
    fence deletes all of the node's segment files.  A segment file is
    named by the *sequence number* of its first event (monotone over
    the node's lifetime), so a re-opened log can reconstruct every
    retained event's sequence — which is what lets recovery skip
    entries an already-persisted checkpoint covers (the torn-fence
    protocol).

    ``fsync_every`` adds *group commit*: every ``fsync_every``-th append
    to a node's log calls ``os.fsync``, pushing the lines past the OS
    page cache to stable storage (a sealed or closed segment always
    syncs its tail).  Per-append flushes already survive a *process*
    death; group commit bounds what a *machine* death can lose to the
    last ``fsync_every - 1`` appends per node.  The fsync blocks with
    the GIL released, which is exactly the stall the parallel ingest
    pipeline overlaps across node workers — see
    :mod:`repro.cluster.pipeline`.
    """

    def __init__(
        self,
        directory: pathlib.Path,
        segment_events: int | None = None,
        fsync_every: int | None = None,
    ) -> None:
        super().__init__(segment_events)
        if fsync_every is not None and fsync_every < 1:
            raise ParameterError(
                f"fsync_every must be >= 1 or None, got {fsync_every}"
            )
        self._dir = pathlib.Path(directory)
        self._fsync_every = fsync_every
        #: node id -> the open active segment file.
        self._handles: dict[int, IO[str]] = {}
        #: node id -> lines written to the active segment file.
        self._active_lines: dict[int, int] = {}
        #: node id -> appends since that node's last fsync.
        self._unsynced: dict[int, int] = {}

    def _node_dir(self, node_id: int) -> pathlib.Path:
        return self._dir / f"node-{node_id}"

    def _fsync(self, node_id: int, handle: IO[str]) -> None:
        """Fsync one node's active file and publish it into telemetry.

        The count is deterministic (one per physical fsync) and always
        recorded when telemetry is attached; the duration and the trace
        record are telemetry-gated extras.
        """
        start = time.perf_counter()
        os.fsync(handle.fileno())
        seconds = time.perf_counter() - start
        telemetry = self._telemetry
        if telemetry is None:
            return
        telemetry.registry.inc("wal_fsyncs_total", node=node_id)
        if telemetry.enabled:
            telemetry.registry.observe("wal_fsync_seconds", seconds)
            telemetry.stage_timer().add("fsync", seconds)
        if telemetry.trace_active:
            telemetry.trace("wal_fsync", node=node_id)

    def _close_active(self, node_id: int, sync: bool) -> None:
        """Close a node's active file, first fsyncing its pending group
        commit when ``sync`` (a seal or a close; a fence or a drop
        deletes the file instead)."""
        handle = self._handles.pop(node_id, None)
        unsynced = self._unsynced.pop(node_id, 0)
        self._active_lines.pop(node_id, None)
        if handle is not None:
            if sync and unsynced:
                self._fsync(node_id, handle)
            handle.close()

    def _open_segment(self, node_id: int) -> None:
        """Seal the active file and open the next, named by the
        sequence of the first event it will hold."""
        self._close_active(node_id, sync=True)
        node_dir = self._node_dir(node_id)
        node_dir.mkdir(parents=True, exist_ok=True)
        self._handles[node_id] = open(
            node_dir / f"seg-{self.sequence(node_id):012d}.log",
            "a",
            encoding="utf-8",
        )
        self._active_lines[node_id] = 0

    def _persist_register(self, node_id: int) -> None:
        self._open_segment(node_id)

    def _persist_append(self, node_id: int, event: KeyedEvent) -> None:
        handle = self._handles[node_id]
        handle.write(encode_event(event) + "\n")
        handle.flush()
        if self._fsync_every is not None:
            unsynced = self._unsynced.get(node_id, 0) + 1
            if unsynced >= self._fsync_every:
                self._fsync(node_id, handle)
                unsynced = 0
            self._unsynced[node_id] = unsynced
        if self._segment_events is not None:
            lines = self._active_lines[node_id] + 1
            self._active_lines[node_id] = lines
            if lines >= self._segment_events:
                self._open_segment(node_id)  # seal the full file, roll

    def _persist_fence(self, node_id: int) -> None:
        self._close_active(node_id, sync=False)
        node_dir = self._node_dir(node_id)
        # Delete oldest-first: a crash mid-loop then leaves a contiguous
        # *suffix* of the chain, which load() accepts and the checkpoint
        # just saved fully covers — never a mid-chain gap it must refuse.
        for path in sorted(node_dir.glob("seg-*.log")):
            path.unlink()
        self._open_segment(node_id)

    def _persist_drop(self, node_id: int) -> None:
        self._close_active(node_id, sync=False)
        shutil.rmtree(self._node_dir(node_id), ignore_errors=True)

    def load(self, node_id: int) -> None:
        """Rebuild the in-memory log for one node from its segment files.

        The retained events are the files' lines in name order, and the
        first file's name is their base sequence.  New appends go to a
        fresh segment file, so the disk always holds the full retained
        log.  Raises :class:`~repro.errors.StateError` on a corrupt
        record or a gap between files.
        """
        events: list[KeyedEvent] = []
        base_seq: int | None = None
        for path in sorted(self._node_dir(node_id).glob("seg-*.log")):
            try:
                start_seq = int(path.stem.split("-", 1)[1])
            except ValueError as exc:
                raise StateError(
                    f"unrecognized WAL segment file {path.name!r}"
                ) from exc
            if base_seq is None:
                base_seq = start_seq
            elif start_seq != base_seq + len(events):
                # A segment's successor must start where it ended; a gap
                # means log records were lost (a deleted segment, or a
                # predecessor that lost tail lines) and a count-based
                # replay would silently misalign.
                raise StateError(
                    f"WAL gap for node {node_id}: {path.name} starts at "
                    f"sequence {start_seq}, expected "
                    f"{base_seq + len(events)} (lost log records)"
                )
            lines = path.read_text(encoding="utf-8").splitlines()
            events.extend(decode_event(line) for line in lines)
        base_seq = base_seq or 0
        self._events[node_id] = events
        self._base_seq[node_id] = base_seq
        self._byte_tally[node_id] = (base_seq, 0)
        self._open_segment(node_id)

    def storage_bytes(self) -> int:
        """Bytes of segment files currently on disk (all nodes)."""
        return sum(
            path.stat().st_size
            for path in self._dir.glob("node-*/seg-*.log")
        )

    def close(self) -> None:
        for node_id in list(self._handles):
            self._close_active(node_id, sync=True)


# ----------------------------------------------------------------------
# checkpoint stores
# ----------------------------------------------------------------------
class CheckpointStore(abc.ABC):
    """Latest-checkpoint-per-node storage plus the cluster manifest.

    A store owns a paired :class:`SegmentedLog` (:attr:`wal`): the two
    together are the whole durability contract — recovery of any node is
    ``latest(node_id)`` + ``wal.replay(node_id)``, and nothing else.
    """

    @property
    @abc.abstractmethod
    def wal(self) -> SegmentedLog:
        """The write-ahead log paired with this store."""

    @abc.abstractmethod
    def initialize(self) -> None:
        """Prepare for a *fresh* cluster, discarding any prior state."""

    @abc.abstractmethod
    def load(self) -> dict[str, Any]:
        """Open existing durable state; returns the manifest.

        Raises :class:`~repro.errors.StateError` when there is nothing
        to recover or the persisted state is corrupt.
        """

    @abc.abstractmethod
    def register(self, node_id: int) -> None:
        """Start tracking a node (and register it with the WAL)."""

    @abc.abstractmethod
    def save(self, node_id: int, line: str) -> None:
        """Durably record ``line`` as the node's latest checkpoint."""

    @abc.abstractmethod
    def latest(self, node_id: int) -> str | None:
        """The node's latest checkpoint line (``None`` if never taken)."""

    @abc.abstractmethod
    def drop(self, node_id: int) -> None:
        """Forget a retired node's checkpoint and WAL state."""

    @abc.abstractmethod
    def write_manifest(self, payload: Mapping[str, Any]) -> None:
        """Durably record the cluster manifest (topology, incarnations)."""

    @abc.abstractmethod
    def journal_migration(self, line: str) -> None:
        """Durably append one in-flight migration batch line.

        Written *before* the batch is absorbed anywhere: between the
        source drain and the first absorb a migrated counter exists in
        no bank, no checkpoint, and no WAL — the journal is the only
        durable copy, which is what lets recovery survive a death
        mid-migration (replay the journal) instead of refusing via the
        manifest's ``mid_migration`` flag.
        """

    @abc.abstractmethod
    def pending_migrations(self) -> list[str]:
        """Journaled batch lines not yet cleared, in journal order."""

    @abc.abstractmethod
    def clear_migration_journal(self) -> None:
        """Discard the journal — the migration's fences are durable."""

    def attach_telemetry(self, telemetry: Any) -> None:
        """Forward a telemetry facade to the paired WAL.

        Backends that rebuild their WAL (``initialize``/``load``) must
        re-forward to the fresh instance; the base class remembers the
        facade in ``self._telemetry`` for that purpose.  Observational
        only — no storage decision ever reads from it.
        """
        self._telemetry = telemetry
        self.wal.attach_telemetry(telemetry)

    def storage_bytes(self) -> int:
        """Bytes of durable state retained (checkpoints + WAL + manifest)."""
        return 0

    def close(self) -> None:
        """Release backend resources (file handles)."""


class MemoryStore(CheckpointStore):
    """The historical in-process behavior, extracted behind the API.

    Checkpoint lines live in a dict; the WAL is a :class:`SegmentedLog`
    holding plain event lists.  The manifest is not kept: ``load``
    always fails — process memory does not survive the process.

    >>> store = MemoryStore()
    >>> store.initialize()
    >>> store.register(0)
    >>> store.latest(0) is None
    True
    >>> store.save(0, "checkpoint-line")
    >>> store.latest(0)
    'checkpoint-line'
    >>> store.load()
    Traceback (most recent call last):
        ...
    repro.errors.StateError: memory store has no durable state to recover
    """

    def __init__(self, wal_segment_events: int | None = None) -> None:
        self._wal = SegmentedLog(wal_segment_events)
        self._lines: dict[int, str | None] = {}
        self._journal: list[str] = []

    @property
    def wal(self) -> SegmentedLog:
        return self._wal

    def initialize(self) -> None:
        self._wal = SegmentedLog(self._wal.segment_events)
        self._wal.attach_telemetry(getattr(self, "_telemetry", None))
        self._lines = {}
        self._journal = []

    def load(self) -> dict[str, Any]:
        raise StateError("memory store has no durable state to recover")

    def register(self, node_id: int) -> None:
        self._lines.setdefault(node_id, None)
        self._wal.register(node_id)

    def save(self, node_id: int, line: str) -> None:
        if node_id not in self._lines:
            raise StateError(f"node {node_id} is not registered")
        self._lines[node_id] = line

    def latest(self, node_id: int) -> str | None:
        try:
            return self._lines[node_id]
        except KeyError:
            raise StateError(f"node {node_id} is not registered") from None

    def drop(self, node_id: int) -> None:
        self._lines.pop(node_id, None)
        self._wal.drop(node_id)

    def write_manifest(self, payload: Mapping[str, Any]) -> None:
        """Nothing to record: a memory cluster is never loaded back."""

    def journal_migration(self, line: str) -> None:
        self._journal.append(line)

    def pending_migrations(self) -> list[str]:
        return list(self._journal)

    def clear_migration_journal(self) -> None:
        self._journal = []

    def storage_bytes(self) -> int:
        checkpoint_bytes = sum(
            len(line.encode("utf-8")) + 1
            for line in self._lines.values()
            if line is not None
        )
        return checkpoint_bytes + self._wal.storage_bytes()


def _atomic_write(path: pathlib.Path, text: str) -> None:
    """Write-then-rename so readers never observe a torn file."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


class FileStore(CheckpointStore):
    """One directory per cluster; every durable record is checksummed.

    Layout (see the module docstring): ``manifest.json`` at the root,
    one ``checkpoints/node-<id>.ckpt`` per node (the latest checkpoint
    line, replaced atomically), and a :class:`SegmentedLog` directory
    per node under ``wal/``.  Checkpoint lines carry the
    :class:`~repro.cluster.checkpoint.BankCheckpoint` checksum and the
    manifest its own, so a truncated or bit-flipped file raises
    :class:`~repro.errors.StateError` instead of resurrecting a silently
    wrong cluster.

    :meth:`initialize` refuses to clobber a directory that already holds
    a cluster manifest unless ``overwrite=True`` — the durability layer
    must never destroy durable state by accident.  The constructor has
    no filesystem side effects, so probing a wrong path with
    :func:`~repro.cluster.simulation.recover_cluster` leaves nothing
    behind.

    >>> import tempfile
    >>> with tempfile.TemporaryDirectory() as tmp:
    ...     store = FileStore(tmp, wal_segment_events=4)
    ...     store.initialize()
    ...     store.register(0)
    ...     store.save(0, "checkpoint-line")
    ...     store.write_manifest({"topology": {"nodes": [0]}})
    ...     reopened = FileStore(tmp)
    ...     manifest = reopened.load()
    ...     found = (reopened.latest(0), manifest["topology"]["nodes"])
    ...     store.close(); reopened.close()
    >>> found
    ('checkpoint-line', [0])
    """

    def __init__(
        self,
        directory: str | os.PathLike[str],
        wal_segment_events: int | None = None,
        overwrite: bool = False,
        wal_fsync_every: int | None = None,
    ) -> None:
        self._dir = pathlib.Path(directory)
        self._checkpoint_dir = self._dir / "checkpoints"
        self._wal_dir = self._dir / "wal"
        self._manifest_path = self._dir / "manifest.json"
        self._journal_path = self._dir / "migration.journal"
        self._overwrite = overwrite
        self._wal_fsync_every = wal_fsync_every
        self._wal = _FileSegmentedLog(
            self._wal_dir, wal_segment_events, wal_fsync_every
        )
        self._lines: dict[int, str | None] = {}
        self._manifest: dict[str, Any] | None = None

    @property
    def directory(self) -> pathlib.Path:
        """The cluster's storage directory."""
        return self._dir

    @property
    def wal(self) -> SegmentedLog:
        return self._wal

    def _checkpoint_path(self, node_id: int) -> pathlib.Path:
        return self._checkpoint_dir / f"node-{node_id}.ckpt"

    def _reopen_wal(
        self, segment_events: int | None, fsync_every: int | None
    ) -> None:
        """Close the WAL and open a fresh one over the same directory."""
        self._wal.close()
        self._wal = _FileSegmentedLog(
            self._wal_dir, segment_events, fsync_every
        )
        self._wal.attach_telemetry(getattr(self, "_telemetry", None))

    def initialize(self) -> None:
        """Start a fresh cluster in the directory.

        Refuses (``StateError``) when the directory already holds a
        cluster manifest, unless the store was built with
        ``overwrite=True`` — re-running a simulation over a durable
        cluster must be an explicit decision, never an accident.
        """
        if self._manifest_path.exists() and not self._overwrite:
            raise StateError(
                f"{self._dir} already holds a cluster manifest; "
                "recover it with recover_cluster(), choose a fresh "
                "directory, or pass overwrite=True to discard it"
            )
        self._reopen_wal(self._wal.segment_events, self._wal_fsync_every)
        shutil.rmtree(self._checkpoint_dir, ignore_errors=True)
        shutil.rmtree(self._wal_dir, ignore_errors=True)
        self._dir.mkdir(parents=True, exist_ok=True)
        self._manifest_path.unlink(missing_ok=True)
        self._journal_path.unlink(missing_ok=True)
        self._checkpoint_dir.mkdir(parents=True, exist_ok=True)
        self._wal_dir.mkdir(parents=True, exist_ok=True)
        self._lines = {}
        self._manifest = None

    def load(self) -> dict[str, Any]:
        """Open a persisted cluster: manifest, checkpoints, WAL replay.

        The WAL segment size is taken from the manifest's config echo,
        so a recovered log fences exactly like the one that wrote it.
        """
        if self._manifest is not None:
            return self._manifest
        if not self._manifest_path.exists():
            raise StateError(
                f"no cluster manifest at {self._manifest_path}"
            )
        body = decode_checksummed_line(
            self._manifest_path.read_text(encoding="utf-8").strip(),
            _MANIFEST_CHECKSUM_SEED,
            kind="cluster manifest",
        )
        if body.get("manifest_version") != _MANIFEST_VERSION:
            raise StateError(
                "unsupported cluster manifest version "
                f"{body.get('manifest_version')!r}"
            )
        manifest = dict(body)
        config_echo = manifest.get("config", {})
        self._reopen_wal(
            config_echo.get("wal_segment_events"),
            config_echo.get("wal_fsync_every"),
        )
        try:
            node_ids = [
                int(node) for node in manifest["topology"]["nodes"]
            ]
        except (KeyError, TypeError, ValueError) as exc:
            raise StateError(
                f"malformed cluster manifest: {exc}"
            ) from exc
        for node_id in node_ids:
            path = self._checkpoint_path(node_id)
            self._lines[node_id] = (
                path.read_text(encoding="utf-8").strip()
                if path.exists()
                else None
            )
            self._wal.load(node_id)
        self._manifest = manifest
        return manifest

    def register(self, node_id: int) -> None:
        self._checkpoint_dir.mkdir(parents=True, exist_ok=True)
        self._lines.setdefault(node_id, None)
        self._wal.register(node_id)

    def save(self, node_id: int, line: str) -> None:
        if node_id not in self._lines:
            raise StateError(f"node {node_id} is not registered")
        _atomic_write(self._checkpoint_path(node_id), line + "\n")
        self._lines[node_id] = line

    def latest(self, node_id: int) -> str | None:
        try:
            return self._lines[node_id]
        except KeyError:
            raise StateError(f"node {node_id} is not registered") from None

    def drop(self, node_id: int) -> None:
        self._checkpoint_path(node_id).unlink(missing_ok=True)
        self._lines.pop(node_id, None)
        self._wal.drop(node_id)

    def write_manifest(self, payload: Mapping[str, Any]) -> None:
        body = dict(payload)
        body["manifest_version"] = _MANIFEST_VERSION
        _atomic_write(
            self._manifest_path,
            encode_checksummed_line(body, _MANIFEST_CHECKSUM_SEED) + "\n",
        )
        self._manifest = body

    def journal_migration(self, line: str) -> None:
        # Append + fsync per batch: the journal is the only durable
        # copy of an in-flight batch, so it must hit the platter before
        # the absorb runs.  Migrations are rare (one per topology
        # change), so per-line open/sync costs nothing that matters.
        with open(self._journal_path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def pending_migrations(self) -> list[str]:
        if not self._journal_path.exists():
            return []
        text = self._journal_path.read_text(encoding="utf-8")
        return [line for line in text.splitlines() if line.strip()]

    def clear_migration_journal(self) -> None:
        self._journal_path.unlink(missing_ok=True)

    def storage_bytes(self) -> int:
        """Actual bytes on disk under the store directory."""
        return sum(
            path.stat().st_size
            for path in self._dir.rglob("*")
            if path.is_file()
        )

    def close(self) -> None:
        self._wal.close()


#: Backend registry for configs and CLI flags.
STORAGE_BACKENDS: tuple[str, ...] = ("memory", "file")


def make_store(
    storage: str,
    wal_segment_events: int | None = None,
    directory: str | os.PathLike[str] | None = None,
    overwrite: bool = False,
    wal_fsync_every: int | None = None,
) -> CheckpointStore:
    """Build a checkpoint store by backend name.

    ``directory``, ``overwrite`` and ``wal_fsync_every`` (group-commit
    fsync on WAL appends) configure the file backend; the memory
    backend takes none of them, and
    :class:`~repro.cluster.simulation.ClusterConfig` refuses them there.

    >>> make_store("memory").latest  # doctest: +ELLIPSIS
    <bound method MemoryStore.latest of ...>
    >>> make_store("file")
    Traceback (most recent call last):
        ...
    repro.errors.ParameterError: file storage needs a directory
    """
    if storage == "memory":
        return MemoryStore(wal_segment_events)
    if storage == "file":
        if directory is None:
            raise ParameterError("file storage needs a directory")
        return FileStore(
            directory,
            wal_segment_events,
            overwrite=overwrite,
            wal_fsync_every=wal_fsync_every,
        )
    known = ", ".join(STORAGE_BACKENDS)
    raise ParameterError(
        f"unknown storage backend {storage!r}; known: {known}"
    )
