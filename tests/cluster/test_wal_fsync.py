"""Group-commit durability accounting of the file-backed WAL.

Counts real ``os.fsync`` calls for fixed append sequences: one every
``fsync_every``-th append to a node, one for the pending appends of a
file sealed by a roll or closed with the store, none at a fence or a
drop (their files are deleted).  ``wal_fsyncs_total`` must equal the
physical count whether telemetry is enabled, disabled or absent — the
counter is deterministic, only durations and traces are gated.
"""

from __future__ import annotations

import pytest

from repro.cluster import FileStore
from repro.cluster import storage
from repro.obs import Telemetry
from repro.stream.workload import KeyedEvent

_TELEMETRY = {
    "enabled": Telemetry,
    "disabled": Telemetry.disabled,
    "absent": lambda: None,
}


@pytest.fixture
def fsyncs(monkeypatch):
    """File descriptors passed to ``os.fsync``, in call order."""
    calls: list[int] = []
    real_fsync = storage.os.fsync

    def counting(fd: int) -> None:
        calls.append(fd)
        real_fsync(fd)

    monkeypatch.setattr(storage.os, "fsync", counting)
    return calls


def _store(tmp_path, segment_events, fsync_every, telemetry):
    store = FileStore(
        tmp_path / "store",
        wal_segment_events=segment_events,
        wal_fsync_every=fsync_every,
    )
    store.initialize()
    if telemetry is not None:
        store.attach_telemetry(telemetry)
    store.register(0)
    store.register(1)
    return store


def _append(store, node_id: int, n: int) -> None:
    for index in range(n):
        store.wal.append(node_id, KeyedEvent(f"k{index}"))


def _counted(telemetry) -> int:
    if telemetry is None:
        return 0
    registry = telemetry.registry
    return sum(
        registry.counter("wal_fsyncs_total", node=node) for node in (0, 1)
    )


@pytest.mark.parametrize("mode", sorted(_TELEMETRY))
def test_group_commit_every_nth_append_and_at_close(tmp_path, fsyncs, mode):
    telemetry = _TELEMETRY[mode]()
    store = _store(tmp_path, None, 2, telemetry)
    _append(store, 0, 5)
    assert len(fsyncs) == 2  # appends 2 and 4
    # The counter is per node: node 1's first append syncs nothing.
    _append(store, 1, 1)
    assert len(fsyncs) == 2
    _append(store, 1, 1)
    assert len(fsyncs) == 3
    store.close()  # node 0 has one pending append, node 1 none
    assert len(fsyncs) == 4
    if telemetry is not None:
        assert _counted(telemetry) == len(fsyncs)


@pytest.mark.parametrize("mode", sorted(_TELEMETRY))
def test_sealed_file_syncs_its_pending_appends(tmp_path, fsyncs, mode):
    telemetry = _TELEMETRY[mode]()
    store = _store(tmp_path, 3, 2, telemetry)
    _append(store, 0, 3)
    # Append 2 commits; append 3 fills the file, whose seal syncs it.
    assert len(fsyncs) == 2
    # The seal restarts the group: the new file's second append commits.
    _append(store, 0, 2)
    assert len(fsyncs) == 3
    _append(store, 0, 1)  # fills the second file: its seal syncs
    assert len(fsyncs) == 4
    store.close()  # the third file holds no pending append
    assert len(fsyncs) == 4
    if telemetry is not None:
        assert _counted(telemetry) == len(fsyncs)


@pytest.mark.parametrize("mode", sorted(_TELEMETRY))
def test_fence_and_drop_do_not_sync(tmp_path, fsyncs, mode):
    telemetry = _TELEMETRY[mode]()
    store = _store(tmp_path, None, 2, telemetry)
    _append(store, 0, 1)
    store.wal.fence(0)
    assert fsyncs == []
    # The fence discarded the pending count with the files.
    _append(store, 0, 1)
    assert fsyncs == []
    _append(store, 0, 1)
    assert len(fsyncs) == 1
    _append(store, 1, 1)
    store.drop(1)
    assert len(fsyncs) == 1
    store.close()
    assert len(fsyncs) == 1
    if telemetry is not None:
        assert _counted(telemetry) == len(fsyncs)


def test_no_group_commit_never_syncs(tmp_path, fsyncs):
    store = _store(tmp_path, 2, None, Telemetry())
    _append(store, 0, 5)
    _append(store, 1, 2)
    store.close()
    assert fsyncs == []
