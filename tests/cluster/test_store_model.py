"""The checkpoint stores against a model: a dict of lines plus a list.

Seeded random sequences of ``register``, ``save``, ``latest``,
``drop``, ``journal_migration``, ``pending_migrations``,
``clear_migration_journal``, ``write_manifest`` and ``initialize`` run
against :class:`MemoryStore` and :class:`FileStore`.  The model is the
latest line per registered node (``None`` until the first save), the
list of journaled migration lines, and, for the file store, whether a
manifest is on disk (which makes ``initialize`` refuse unless the store
was built with ``overwrite=True``).  After every operation:

* ``latest`` of each registered node equals the model's line, and an
  unregistered node is refused;
* ``pending_migrations`` equals the model's journal;
* the memory store's ``storage_bytes`` counts exactly the saved lines;
* the file store's directory holds one ``checkpoints/node-<id>.ckpt``
  per saved line (the line plus a newline), ``migration.journal`` with
  one line per pending batch (absent when there is none), a
  ``manifest.json`` exactly when one was written, and one WAL directory
  per registered node.

A file-store sequence also reopens its directory mid-way (write the
manifest, close, ``load`` a new store over it, carry on with that one),
and at its end ``FileStore(dir).load()`` must return the model's lines
and journal.  A golden listing pins the file names and bytes one fixed
script leaves behind.
"""

from __future__ import annotations

import random

import pytest

from repro.cluster import FileStore, MemoryStore
from repro.errors import StateError

_NODES = range(5)


class _Model:
    """What every store observable should read."""

    def __init__(self) -> None:
        self.lines: dict[int, str | None] = {}
        self.journal: list[str] = []
        self.manifest = False

    def initialize(self) -> None:
        self.lines, self.journal, self.manifest = {}, [], False


def _payload(model: _Model, tag: int) -> dict:
    return {
        "topology": {"nodes": sorted(model.lines), "epoch": tag},
        "config": {"wal_segment_events": None, "wal_fsync_every": None},
    }


def _reopen(store, model: _Model, overwrite: bool = False):
    """Write the manifest, close, and load a new store over the directory."""
    store.write_manifest(_payload(model, -1))
    model.manifest = True
    store.close()
    reopened = FileStore(store.directory, overwrite=overwrite)
    reopened.load()
    return reopened


def _listing(directory) -> dict[str, str]:
    return {
        path.relative_to(directory).as_posix(): path.read_text("utf-8")
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


def _check(store, model: _Model, kind: str) -> None:
    for node_id in _NODES:
        if node_id in model.lines:
            assert store.latest(node_id) == model.lines[node_id]
        else:
            with pytest.raises(StateError, match="not registered"):
                store.latest(node_id)
    assert store.pending_migrations() == model.journal
    saved = {
        node_id: line
        for node_id, line in model.lines.items()
        if line is not None
    }
    if kind == "memory":
        assert store.storage_bytes() == sum(
            len(line.encode("utf-8")) + 1 for line in saved.values()
        )
        return
    listing = _listing(store.directory)
    assert {
        name: text
        for name, text in listing.items()
        if name.startswith("checkpoints/")
    } == {
        f"checkpoints/node-{node_id}.ckpt": line + "\n"
        for node_id, line in saved.items()
    }
    assert listing.get("migration.journal", "") == "".join(
        line + "\n" for line in model.journal
    )
    assert ("manifest.json" in listing) == model.manifest
    wal_dirs = sorted(path.name for path in store.directory.glob("wal/*"))
    assert wal_dirs == [f"node-{node_id}" for node_id in sorted(model.lines)]
    assert store.storage_bytes() == sum(
        len(text.encode("utf-8")) for text in listing.values()
    )


def _open(kind: str, tmp_path, overwrite: bool):
    if kind == "memory":
        store = MemoryStore()
    else:
        store = FileStore(tmp_path / "store", overwrite=overwrite)
    store.initialize()
    return store


_BACKENDS = [("memory", False), ("file", False), ("file", True)]


@pytest.mark.parametrize("kind,overwrite", _BACKENDS)
@pytest.mark.parametrize("seed", range(6))
def test_store_matches_model(tmp_path, kind, overwrite, seed):
    rng = random.Random(f"{kind}-{overwrite}-{seed}")
    store = _open(kind, tmp_path, overwrite)
    model = _Model()
    try:
        for step in range(200):
            op = rng.random()
            node_id = rng.choice(_NODES)
            if op < 0.15:
                store.register(node_id)
                model.lines.setdefault(node_id, None)
            elif op < 0.45:
                line = f"ckpt-{node_id}-{step}-" + "x" * rng.randrange(40)
                if node_id in model.lines:
                    store.save(node_id, line)
                    model.lines[node_id] = line
                else:
                    with pytest.raises(StateError, match="not registered"):
                        store.save(node_id, line)
            elif op < 0.52:
                if node_id in model.lines:
                    store.drop(node_id)
                    del model.lines[node_id]
                else:
                    with pytest.raises(StateError, match="not registered"):
                        store.drop(node_id)
            elif op < 0.64:
                line = f"batch-{step}-{rng.randrange(1000)}"
                store.journal_migration(line)
                model.journal.append(line)
            elif op < 0.70:
                store.clear_migration_journal()
                model.journal = []
            elif op < 0.80:
                store.write_manifest(_payload(model, step))
                model.manifest = model.manifest or kind == "file"
            elif op < 0.86:
                if kind == "file" and model.manifest and not overwrite:
                    with pytest.raises(StateError, match="already holds"):
                        store.initialize()
                else:
                    store.initialize()
                    model.initialize()
            elif op < 0.90 and kind == "file":
                store = _reopen(store, model, overwrite)
            else:
                assert store.pending_migrations() == model.journal
            _check(store, model, kind)
        if kind == "file":
            store = _reopen(store, model)  # FileStore(dir).load()
            _check(store, model, kind)
            assert {
                node_id: store.latest(node_id) for node_id in model.lines
            } == model.lines
            assert store.pending_migrations() == model.journal
        else:
            with pytest.raises(StateError, match="no durable state"):
                store.load()
    finally:
        store.close()


#: The directory a fixed script leaves behind: node 2 was dropped, node
#: 1 never saved, the journal was cleared once and holds the one batch
#: journaled after that, and the reopened store saved node 0 again.
_GOLDEN = {
    "checkpoints/node-0.ckpt": "zero-c\n",
    "manifest.json": (
        '{"crc32":2985079062,"payload":{"config":{},"manifest_version":1,'
        '"topology":{"epoch":3,"nodes":[0,1]}}}\n'
    ),
    "migration.journal": "batch-3\n",
    "wal/node-0/seg-000000000000.log": "",
    "wal/node-1/seg-000000000000.log": "",
}


def test_golden_listing(tmp_path):
    store = FileStore(tmp_path / "store")
    store.initialize()
    for node_id in (0, 1, 2):
        store.register(node_id)
    store.save(0, "zero-a")
    store.save(2, "two-a")
    store.journal_migration("batch-1")
    store.journal_migration("batch-2")
    store.clear_migration_journal()
    store.journal_migration("batch-3")
    store.save(0, "zero-b")
    store.drop(2)
    store.write_manifest(
        {"topology": {"nodes": [0, 1], "epoch": 3}, "config": {}}
    )
    store.close()
    reopened = FileStore(tmp_path / "store")
    reopened.load()
    assert reopened.pending_migrations() == ["batch-3"]
    reopened.save(0, "zero-c")
    reopened.close()
    assert _listing(tmp_path / "store") == _GOLDEN
