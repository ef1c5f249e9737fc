"""The manifest's config echo and lifetime counters.

Recovery reads the echo back field by field.  A key an older manifest
lacks takes the field's default, a key it has that ``ClusterConfig`` no
longer does is ignored, and a wrongly typed value is refused as a
malformed manifest.  Lifetime counters come back from the ``"metrics"``
block, or from a pre-telemetry manifest's ``"counters"`` block.
"""

from __future__ import annotations

import dataclasses
import shutil

import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterSimulation,
    FileStore,
    ScaleEvent,
    TumblingRetention,
    default_template,
    recover_cluster,
    view_fingerprint,
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


def _rewrite_manifest(tmp_path, rewrite) -> dict:
    store = FileStore(str(tmp_path))
    manifest = rewrite(store.load())
    store.write_manifest(manifest)
    store.close()
    return manifest


def _rewrite_echo(tmp_path, rewrite) -> None:
    _rewrite_manifest(
        tmp_path,
        lambda manifest: {**manifest, "config": rewrite(manifest["config"])},
    )


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


#: The five cluster-wide lifetime counters, by the registry series and
#: the key a pre-telemetry manifest's ``"counters"`` block used.
_LEGACY_COUNTERS = {
    "windows_collapsed_total": "windows_collapsed",
    "scale_events_total": "scale_events_applied",
    "keys_migrated_total": "keys_migrated",
    "migration_batches_total": "migration_batches",
    "migration_bytes_total": "migration_bytes",
}


def _elastic_durable_run(tmp_path) -> dict[str, int]:
    """A durable run that moves all five lifetime counters; returns the
    live run's exported counters."""
    config = ClusterConfig(
        n_nodes=2,
        template=default_template("exact"),
        seed=5,
        checkpoint_every=300,
        routing="ring",
        retention=TumblingRetention(window_events=400),
        scale_events=(ScaleEvent(at_event=500, action="add"),),
        storage="file",
        storage_dir=str(tmp_path),
    )
    events = zipf_workload(BitBudgetedRandom(5), n_keys=40, n_events=1000)
    with ClusterSimulation(config) as simulation:
        simulation.run(events)
        counters = simulation.metrics_snapshot()["counters"]
    assert all(counters[series] > 0 for series in _LEGACY_COUNTERS)
    return counters


class TestLifetimeCounters:
    def test_new_manifest_has_no_counters_block(self, tmp_path):
        live = _elastic_durable_run(tmp_path)
        store = FileStore(str(tmp_path))
        manifest = store.load()
        store.close()
        assert "counters" not in manifest
        with recover_cluster(str(tmp_path)) as recovered:
            counters = recovered.metrics_snapshot()["counters"]
        # Recovery itself adds one recovery per node; every other
        # lifetime counter comes back exactly as the live run left it.
        recoveries = {
            series for series in counters
            if series.startswith("node_recoveries")
        }
        assert {
            series: value for series, value in counters.items()
            if series not in recoveries
        } == {
            series: value for series, value in live.items()
            if series not in recoveries
        }
        assert all(
            counters[series] == live.get(series, 0) + 1
            for series in recoveries
        )

    def test_pre_telemetry_manifest_loads_the_counters_block(
        self, tmp_path
    ):
        live = _elastic_durable_run(tmp_path / "legacy")
        shutil.copytree(tmp_path / "legacy", tmp_path / "current")
        with recover_cluster(str(tmp_path / "current")) as recovered:
            expected = view_fingerprint(recovered.aggregator.global_view())

        def pre_telemetry(manifest: dict) -> dict:
            del manifest["metrics"], manifest["stats_base"]
            manifest["counters"] = {
                key: live[series]
                for series, key in _LEGACY_COUNTERS.items()
            }
            return manifest

        manifest = _rewrite_manifest(tmp_path / "legacy", pre_telemetry)
        with recover_cluster(str(tmp_path / "legacy")) as recovered:
            counters = recovered.metrics_snapshot()["counters"]
            view = recovered.aggregator.global_view()
        for series in _LEGACY_COUNTERS:
            assert counters[series] == live[series], series
        for node, count in manifest["checkpoints"].items():
            assert counters[f"node_checkpoints{{node={node}}}"] >= count
        assert view_fingerprint(view) == expected

    def test_manifest_echoing_consume_mode_recovers(self, tmp_path):
        _durable_run(tmp_path)
        with recover_cluster(str(tmp_path)) as recovered:
            expected = recovered.aggregator.global_view().truth
        _rewrite_echo(
            tmp_path, lambda echo: {**echo, "consume_mode": "per_unit"}
        )
        with recover_cluster(str(tmp_path)) as recovered:
            assert not hasattr(recovered.config, "consume_mode")
            assert recovered.aggregator.global_view().truth == expected
            assert sum(expected.values()) == 1000
