"""The write-ahead log against a model: a plain list plus a base sequence.

Seeded random sequences of ``register``, ``append``, ``fence``, ``drop``
and close-then-``load`` (each load followed by the ``truncate_through``
a recovery applies) run against both stores' logs.  After every
operation each observable — ``sequence``, ``retained_events``,
``replay``, ``needs_fence``, ``storage_bytes`` — must equal what the
model predicts, and on the file store the segment files on disk must be
exactly the model's file layout:

* a file is named by the sequence of its first event;
* a file sealed by a roll holds exactly ``segment_events`` lines;
* a reload starts a fresh file at the next sequence (a partial file
  left by the previous writer stays as it was);
* a fence, or a truncation past the log's own sequence, deletes every
  file and starts over at the fence position.

A golden listing pins the on-disk format itself: file names and bytes
for one fixed sequence.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import pytest

from repro.cluster import FileStore, MemoryStore
from repro.cluster.storage import encode_event
from repro.stream.workload import KeyedEvent


@dataclass
class _ModelNode:
    """One node's log: retained events, their base, and the disk files."""

    base: int = 0
    events: list[KeyedEvent] = field(default_factory=list)
    #: ``[start sequence, events]`` per segment file, oldest first; the
    #: last one is the file appends go to.
    files: list[list] = field(default_factory=lambda: [[0, []]])
    #: Files sealed because they filled up (not by a reload).
    rolled: set[int] = field(default_factory=set)

    @property
    def sequence(self) -> int:
        return self.base + len(self.events)

    def append(self, event: KeyedEvent, segment_events: int | None) -> None:
        self.events.append(event)
        active = self.files[-1]
        active[1].append(event)
        if segment_events is not None and len(active[1]) >= segment_events:
            self.rolled.add(active[0])
            self.files.append([self.sequence, []])

    def fence_at(self, seq: int) -> None:
        self.base, self.events = seq, []
        self.files, self.rolled = [[seq, []]], set()

    def reload(self) -> None:
        disk = [event for _, events in self.files for event in events]
        self.base, self.events = self.files[0][0], disk
        if self.files[-1][1]:
            self.files.append([self.sequence, []])

    def truncate_through(self, seq: int) -> None:
        if seq > self.sequence:
            self.fence_at(seq)
        elif seq > self.base:
            self.events = self.events[seq - self.base:]
            self.base = seq


def _open(kind, tmp_path, segment_events, fsync_every):
    if kind == "memory":
        store = MemoryStore(segment_events)
    else:
        store = FileStore(
            tmp_path / "store",
            wal_segment_events=segment_events,
            wal_fsync_every=fsync_every,
        )
    store.initialize()
    return store


def _reload(store, live, segment_events, fsync_every):
    """Close-then-load, as a recovering process does."""
    store.write_manifest(
        {
            "topology": {"nodes": sorted(live)},
            "config": {
                "wal_segment_events": segment_events,
                "wal_fsync_every": fsync_every,
            },
        }
    )
    store.close()
    reopened = FileStore(store.directory)
    reopened.load()
    return reopened


def _listing(store) -> dict[str, str]:
    wal_dir = store.directory / "wal"
    return {
        path.relative_to(wal_dir).as_posix(): path.read_text("utf-8")
        for path in sorted(wal_dir.glob("node-*/seg-*.log"))
    }


def _model_listing(model: dict[int, _ModelNode]) -> dict[str, str]:
    return {
        f"node-{node_id}/seg-{start:012d}.log": "".join(
            encode_event(event) + "\n" for event in events
        )
        for node_id, node in model.items()
        for start, events in node.files
    }


def _check(store, model, kind, segment_events) -> None:
    wal = store.wal
    for node_id, node in model.items():
        assert wal.sequence(node_id) == node.sequence
        assert wal.retained_events(node_id) == len(node.events)
        assert wal.replay(node_id) == node.events
        assert wal.needs_fence(node_id) == (
            segment_events is not None and len(node.events) >= segment_events
        )
    if kind == "memory":
        assert wal.storage_bytes() == sum(
            len(encode_event(event)) + 1
            for node in model.values()
            for event in node.events
        )
        return
    listing = _listing(store)
    assert listing == _model_listing(model)
    assert wal.storage_bytes() == sum(
        len(text.encode("utf-8")) for text in listing.values()
    )
    for node in model.values():
        for start, events in node.files:
            if start in node.rolled:
                assert len(events) == segment_events


_BACKENDS = [("memory", None), ("file", None), ("file", 2)]


@pytest.mark.parametrize("kind,fsync_every", _BACKENDS)
@pytest.mark.parametrize("segment_events", [None, 1, 3, 16])
@pytest.mark.parametrize("seed", range(4))
def test_log_matches_model(
    tmp_path, kind, fsync_every, segment_events, seed
):
    rng = random.Random(f"{kind}-{fsync_every}-{segment_events}-{seed}")
    store = _open(kind, tmp_path, segment_events, fsync_every)
    model: dict[int, _ModelNode] = {}
    try:
        for _ in range(250):
            op = rng.random()
            if not model or op < 0.06:
                node_id = rng.randrange(4)
                store.register(node_id)
                model.setdefault(node_id, _ModelNode())
            elif op < 0.80:
                node_id = rng.choice(sorted(model))
                key = f"page-{rng.randrange(50)}"
                event = KeyedEvent(key, rng.randrange(1, 600))
                store.wal.append(node_id, event)
                model[node_id].append(event, segment_events)
            elif op < 0.87:
                node_id = rng.choice(sorted(model))
                store.wal.fence(node_id)
                node = model[node_id]
                node.fence_at(node.sequence)
            elif op < 0.90:
                node_id = rng.choice(sorted(model))
                store.drop(node_id)
                del model[node_id]
            else:
                if kind == "file":
                    store = _reload(
                        store, model, segment_events, fsync_every
                    )
                    for node in model.values():
                        node.reload()
                for node_id in sorted(model):
                    if rng.random() < 0.5:
                        node = model[node_id]
                        # Below the base (a no-op), inside the retained
                        # log, or past its sequence (the re-fence).
                        seq = rng.randrange(
                            max(0, node.base - 1), node.sequence + 3
                        )
                        store.wal.truncate_through(node_id, seq)
                        node.truncate_through(seq)
            _check(store, model, kind, segment_events)
    finally:
        store.close()


#: The WAL directory a fixed sequence leaves behind (three-event
#: segments): node 0 rolled, was reloaded, truncated and rolled again;
#: node 1 was fenced and then reloaded, which opened an empty file.
_GOLDEN = {
    "node-0/seg-000000000000.log": '["a",1]\n["b",2]\n["c",3]\n',
    "node-0/seg-000000000003.log": '["d",4]\n["e",5]\n["f",6]\n',
    "node-0/seg-000000000006.log": '["g",7]\n',
    "node-0/seg-000000000007.log": '["h",8]\n["i",9]\n["j",10]\n',
    "node-0/seg-000000000010.log": '["k",11]\n',
    "node-1/seg-000000000002.log": '["y",2]\n',
    "node-1/seg-000000000003.log": "",
}


def test_golden_listing(tmp_path):
    store = _open("file", tmp_path, 3, None)
    store.register(0)
    store.register(1)
    for index, key in enumerate("abcdefg", start=1):
        store.wal.append(0, KeyedEvent(key, index))
    store.wal.append(1, KeyedEvent("x", 1))
    store.wal.append(1, KeyedEvent("z", 1))
    store.wal.fence(1)
    store.wal.append(1, KeyedEvent("y", 2))
    store = _reload(store, {0, 1}, 3, None)
    store.wal.truncate_through(0, 2)
    assert [event.key for event in store.wal.replay(0)] == list("cdefg")
    for index, key in enumerate("hijk", start=8):
        store.wal.append(0, KeyedEvent(key, index))
    store.close()
    assert _listing(store) == _GOLDEN
