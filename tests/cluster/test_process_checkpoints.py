"""The process plan saves exactly the serial plan's checkpoint lines.

A checkpoint is the durable record recovery restores from, so a plan
that moves where a bank lives must not change what lands on disk.
Every ``(node_id, line)`` handed to the store's ``save`` is recorded
under the serial plan and under the process plan, and the two
sequences must match byte for byte: the periodic budget, the WAL
segment fence, and (with a scale-up and tumbling retention) the
migration and window-collapse fences too.
"""

from __future__ import annotations

import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterSimulation,
    ScaleEvent,
    TumblingRetention,
    default_template,
)
from repro.cluster.storage import FileStore
from repro.rng.bitstream import BitBudgetedRandom
from repro.stream.workload import zipf_workload

_SEED = 29
_EVENTS = 6_000


def _saved_lines(monkeypatch, config: ClusterConfig) -> list[tuple[int, str]]:
    """Run ``config`` over a fixed stream; every ``save`` in order."""
    saved: list[tuple[int, str]] = []
    save = FileStore.save

    def recording_save(store, node_id, line):
        saved.append((node_id, line))
        return save(store, node_id, line)

    with monkeypatch.context() as patch:
        patch.setattr(FileStore, "save", recording_save)
        events = zipf_workload(BitBudgetedRandom(_SEED), 200, _EVENTS)
        with ClusterSimulation(config) as simulation:
            simulation.run(events)
    return saved


@pytest.mark.parametrize("algorithm", ["exact", "simplified_ny"])
@pytest.mark.parametrize("elastic", [False, True], ids=["steady", "elastic"])
def test_process_plan_saves_the_serial_checkpoints(
    monkeypatch, tmp_path, algorithm, elastic
):
    shared = dict(
        n_nodes=3,
        template=default_template(algorithm),
        seed=_SEED,
        checkpoint_every=700,
        wal_segment_events=900,
        storage="file",
    )
    if elastic:
        shared.update(
            retention=TumblingRetention(window_events=2500),
            scale_events=(ScaleEvent(at_event=2200, action="add"),),
        )
    serial = _saved_lines(
        monkeypatch,
        ClusterConfig(**shared, storage_dir=str(tmp_path / "serial")),
    )
    process = _saved_lines(
        monkeypatch,
        ClusterConfig(
            **shared,
            plan="process",
            delivery_batch=32,
            storage_dir=str(tmp_path / "process"),
        ),
    )
    assert len(serial) >= 7
    assert [node for node, _ in process] == [node for node, _ in serial]
    assert process == serial
