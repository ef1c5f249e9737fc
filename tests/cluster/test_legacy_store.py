"""A store directory written with SplitMix64 ``"checksum"`` records recovers.

Records are written with a CRC-32 envelope now, but directories already
on disk carry the older envelope in their manifest, checkpoints (and the
counter records nested in them) and migration journal.  Rewriting every
record of a fresh directory into that envelope must not change what
:func:`~repro.cluster.simulation.recover_cluster` rebuilds.  The golden
lines in ``tests/core/test_codec.py`` pin the rewrite to the bytes the
older encoder produced.
"""

from __future__ import annotations

import json

import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterSimulation,
    default_template,
    recover_cluster,
)
from repro.cluster import checkpoint, rebalance, storage
from repro.core import codec
from repro.errors import StateError
from repro.rng.bitstream import BitBudgetedRandom
from repro.stream.workload import zipf_workload


def _legacy(line: str, seed: int, nested: bool = False) -> str:
    body = json.loads(line)["payload"]
    if nested:
        body["counters"] = {
            key: _legacy(record, codec._CHECKSUM_SEED)
            for key, record in body["counters"].items()
        }
    payload = codec._canonical(body)
    checksum = codec._legacy_checksum(payload, seed)
    return f'{{"checksum":{checksum},"payload":{payload}}}'


def _rewrite_as_legacy(directory) -> int:
    """Rewrite every checksummed record under ``directory``; returns
    how many lines were rewritten."""
    files = [
        (directory / "manifest.json", storage._MANIFEST_CHECKSUM_SEED, False),
        (directory / "migration.journal", rebalance._BATCH_CHECKSUM_SEED, True),
    ] + [
        (path, checkpoint._CHECKSUM_SEED, True)
        for path in sorted(directory.glob("checkpoints/node-*.ckpt"))
    ]
    rewritten = 0
    for path, seed, nested in files:
        if not path.exists():
            continue
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text(
            "".join(_legacy(line, seed, nested) + "\n" for line in lines),
            encoding="utf-8",
        )
        rewritten += len(lines)
    return rewritten


def _config(directory) -> ClusterConfig:
    return ClusterConfig(
        seed=4242,
        n_nodes=2,
        template=default_template("simplified_ny"),
        buffer_limit=256,
        checkpoint_every=1000,
        routing="ring",
        storage="file",
        storage_dir=str(directory),
    )


def _fingerprint(simulation):
    view = simulation.aggregator.global_view()
    return (
        {key: counter.estimate() for key, counter in view.counters.items()},
        dict(view.truth) if view.truth is not None else None,
    )


def _died_mid_migration(directory) -> None:
    """Leave a manifest, checkpoints and a pending migration journal."""
    simulation = ClusterSimulation(_config(directory))
    simulation.run(zipf_workload(BitBudgetedRandom(7), 200, 3000))

    def dying_checkpoint(node_id):
        raise RuntimeError("simulated process death at the fence")

    simulation.checkpoint_node = dying_checkpoint
    with pytest.raises(RuntimeError):
        simulation.scale_up()
    simulation._store.close()


def test_legacy_directory_recovers_to_the_same_view(tmp_path):
    _died_mid_migration(tmp_path / "current")
    _died_mid_migration(tmp_path / "legacy")
    assert (tmp_path / "legacy" / "migration.journal").exists()
    assert _rewrite_as_legacy(tmp_path / "legacy") >= 4
    assert '"crc32"' not in "".join(
        path.read_text()
        for path in (tmp_path / "legacy").rglob("*")
        if path.is_file() and path.suffix != ".log"
    )

    current = recover_cluster(str(tmp_path / "current"))
    legacy = recover_cluster(str(tmp_path / "legacy"))
    assert _fingerprint(legacy) == _fingerprint(current)
    current.close()
    legacy.close()


def test_corrupt_legacy_checkpoint_is_loud(tmp_path):
    simulation = ClusterSimulation(_config(tmp_path))
    simulation.run(zipf_workload(BitBudgetedRandom(7), 200, 3000))
    simulation.close()
    _rewrite_as_legacy(tmp_path)
    victim = sorted(tmp_path.glob("checkpoints/node-*.ckpt"))[0]
    line = victim.read_text()
    victim.write_text(line.replace('"seed":', '"seed":1', 1))
    with pytest.raises(StateError, match="checksum"):
        recover_cluster(str(tmp_path))
