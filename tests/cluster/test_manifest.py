"""The manifest's config echo: derived from ``ClusterConfig`` fields.

Recovery reads the echo back field by field.  A key an older manifest
lacks takes the field's default; a wrongly typed value is refused as a
malformed manifest.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterSimulation,
    FileStore,
    default_template,
    recover_cluster,
)
from repro.errors import StateError
from repro.rng.bitstream import BitBudgetedRandom
from repro.stream.workload import zipf_workload

#: The echo written before parallel ingest added its fields.
_PRE_PARALLEL_KEYS = (
    "template",
    "seed",
    "buffer_limit",
    "checkpoint_every",
    "hot_keys",
    "hot_key_threshold",
    "track_truth",
    "fanout",
    "routing",
    "ring_points",
    "wal_segment_events",
    "traffic_table_limit",
)


def _durable_run(tmp_path, **overrides) -> None:
    config = ClusterConfig(
        n_nodes=2,
        template=default_template("exact"),
        seed=5,
        checkpoint_every=300,
        storage="file",
        storage_dir=str(tmp_path),
        **overrides,
    )
    events = zipf_workload(BitBudgetedRandom(5), n_keys=40, n_events=1000)
    with ClusterSimulation(config) as simulation:
        simulation.run(events)


def _rewrite_echo(tmp_path, rewrite) -> None:
    store = FileStore(str(tmp_path))
    manifest = store.load()
    manifest["config"] = rewrite(manifest["config"])
    store.write_manifest(manifest)
    store.close()


class TestConfigEcho:
    def test_echo_round_trips_every_persisted_field(self, tmp_path):
        _durable_run(
            tmp_path,
            ingest_workers=2,
            delivery_batch=16,
            hot_keys=("page-000000",),
        )
        with recover_cluster(str(tmp_path)) as recovered:
            config = recovered.config
        assert config.ingest_workers == 2
        assert config.delivery_batch == 16
        assert config.hot_keys == ("page-000000",)
        assert config.template == default_template("exact")

    def test_pre_parallel_ingest_manifest_recovers_with_defaults(
        self, tmp_path
    ):
        _durable_run(tmp_path, ingest_workers=2, delivery_batch=16)
        _rewrite_echo(
            tmp_path,
            lambda echo: {key: echo[key] for key in _PRE_PARALLEL_KEYS},
        )
        with recover_cluster(str(tmp_path)) as recovered:
            config = recovered.config
            view = recovered.aggregator.global_view()
        defaults = ClusterConfig()
        for spec in dataclasses.fields(ClusterConfig):
            if spec.name in _PRE_PARALLEL_KEYS or spec.name in (
                "n_nodes",
                "storage",
                "storage_dir",
            ):
                continue
            assert getattr(config, spec.name) == getattr(
                defaults, spec.name
            ), spec.name
        assert config.seed == 5
        assert config.checkpoint_every == 300
        assert sum(view.truth.values()) == 1000

    @pytest.mark.parametrize(
        "key, value",
        [
            ("seed", "5"),
            ("delivery_batch", 16.0),
            ("track_truth", 1),
            ("checkpoint_every", True),
            ("hot_keys", "page-000000"),
            ("template", None),
        ],
    )
    def test_wrong_typed_field_is_a_malformed_manifest(
        self, tmp_path, key, value
    ):
        _durable_run(tmp_path)
        _rewrite_echo(tmp_path, lambda echo: {**echo, key: value})
        with pytest.raises(StateError, match="malformed cluster manifest"):
            recover_cluster(str(tmp_path))
