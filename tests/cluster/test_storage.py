"""Durability-layer tests: stores, segmented WAL, recovery from disk.

The ISSUE-3 acceptance invariants pinned here:

* **Bounded durable log** — with ``checkpoint_every=None`` and a
  ``SegmentedLog``, per-node retained-log length after a long run is
  bounded by the segment size (the forced fence checkpoint), never by
  stream length.
* **Backend transparency** — the same config seed and event stream
  produce bit-identical results on ``memory`` and ``file`` storage,
  crashes mid-migration and window collapses included.
* **Recovery from disk** — a ``FileStore`` cluster rebuilt via
  :func:`~repro.cluster.simulation.recover_cluster` reproduces the
  pre-crash run's ``GlobalView`` bit for bit on ``exact`` templates.
* **Loud corruption** — a truncated or bit-flipped checkpoint line
  raises :class:`~repro.errors.StateError`, never a silently wrong node.
"""

from __future__ import annotations

import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterSimulation,
    FileStore,
    MemoryStore,
    NodeFailure,
    ScaleEvent,
    SegmentedLog,
    TumblingRetention,
    default_template,
    make_store,
    recover_cluster,
)
from repro.errors import ParameterError, StateError
from repro.rng.bitstream import BitBudgetedRandom
from repro.stream.workload import KeyedEvent, zipf_workload

_SEED = 90210


def _events(n_events: int, n_keys: int = 300, seed: int = _SEED):
    return zipf_workload(BitBudgetedRandom(seed), n_keys, n_events)


def _view_fingerprint(view) -> tuple[dict, dict | None]:
    """Comparable (estimates, truth) projection of a GlobalView."""
    return (
        {key: counter.estimate() for key, counter in view.counters.items()},
        dict(view.truth) if view.truth is not None else None,
    )


class TestSegmentedLog:
    def test_unbounded_mode_never_needs_fence(self):
        log = SegmentedLog()
        log.register(0)
        for i in range(1000):
            log.append(0, KeyedEvent(f"k{i}"))
        assert log.retained_events(0) == 1000
        assert not log.needs_fence(0)
        log.fence(0)
        assert log.retained_events(0) == 0

    def test_segments_roll_and_fence_truncates_all(self):
        log = SegmentedLog(segment_events=10)
        log.register(0)
        for i in range(25):
            log.append(0, KeyedEvent(f"k{i}"))
        assert log.retained_events(0) == 25
        assert log.needs_fence(0)
        # Replay preserves order across segment boundaries.
        assert [e.key for e in log.replay(0)] == [f"k{i}" for i in range(25)]
        log.fence(0)
        assert log.retained_events(0) == 0
        assert not log.needs_fence(0)

    def test_needs_fence_exactly_at_segment_boundary(self):
        log = SegmentedLog(segment_events=4)
        log.register(0)
        for i in range(3):
            log.append(0, KeyedEvent(f"k{i}"))
        assert not log.needs_fence(0)
        log.append(0, KeyedEvent("k3"))
        assert log.needs_fence(0)

    def test_drop_forgets_node(self):
        log = SegmentedLog(segment_events=4)
        log.register(3)
        log.append(3, KeyedEvent("a"))
        log.drop(3)
        with pytest.raises(StateError):
            log.replay(3)

    def test_unregistered_node_is_loud(self):
        log = SegmentedLog()
        with pytest.raises(StateError):
            log.append(7, KeyedEvent("a"))

    def test_validation(self):
        with pytest.raises(ParameterError):
            SegmentedLog(segment_events=0)


class TestMemoryStore:
    def test_save_latest_drop(self):
        store = MemoryStore()
        store.initialize()
        store.register(0)
        assert store.latest(0) is None
        store.save(0, "line-1")
        store.save(0, "line-2")
        assert store.latest(0) == "line-2"
        store.drop(0)
        with pytest.raises(StateError):
            store.latest(0)

    def test_load_is_impossible(self):
        with pytest.raises(StateError):
            MemoryStore().load()

    def test_storage_bytes_counts_retained_state(self):
        store = MemoryStore()
        store.initialize()
        store.register(0)
        assert store.storage_bytes() == 0
        store.save(0, "x" * 100)
        store.wal.append(0, KeyedEvent("key", 2))
        assert store.storage_bytes() > 100

    def test_make_store_registry(self):
        assert isinstance(make_store("memory"), MemoryStore)
        with pytest.raises(ParameterError):
            make_store("file")  # needs a directory
        with pytest.raises(ParameterError):
            make_store("kv")


class TestFileStore:
    def test_checkpoints_survive_reopen(self, tmp_path):
        store = FileStore(tmp_path)
        store.initialize()
        store.register(0)
        store.register(1)
        store.save(0, "checkpoint-zero")
        store.write_manifest({"topology": {"nodes": [0, 1], "epoch": 0}})
        store.close()
        reopened = FileStore(tmp_path)
        manifest = reopened.load()
        assert manifest["topology"]["nodes"] == [0, 1]
        assert reopened.latest(0) == "checkpoint-zero"
        assert reopened.latest(1) is None
        reopened.close()

    def test_wal_survives_reopen_in_order(self, tmp_path):
        store = FileStore(tmp_path, wal_segment_events=3)
        store.initialize()
        store.register(0)
        for i in range(8):
            store.wal.append(0, KeyedEvent(f"k{i}", i + 1))
        store.write_manifest(
            {
                "topology": {"nodes": [0], "epoch": 0},
                "config": {"wal_segment_events": 3},
            }
        )
        store.close()
        reopened = FileStore(tmp_path)
        reopened.load()
        assert [(e.key, e.count) for e in reopened.wal.replay(0)] == [
            (f"k{i}", i + 1) for i in range(8)
        ]
        reopened.close()

    def test_fence_deletes_segment_files(self, tmp_path):
        store = FileStore(tmp_path, wal_segment_events=2)
        store.initialize()
        store.register(0)
        for i in range(5):
            store.wal.append(0, KeyedEvent(f"k{i}"))
        segment_files = list(tmp_path.glob("wal/node-0/seg-*.log"))
        assert len(segment_files) == 3  # two sealed + one active
        store.wal.fence(0)
        remaining = list(tmp_path.glob("wal/node-0/seg-*.log"))
        assert len(remaining) == 1  # the fresh active segment
        assert remaining[0].read_text() == ""
        store.close()

    def test_initialize_refuses_to_clobber_existing_cluster(self, tmp_path):
        """The durability layer must never destroy durable state by
        accident: re-initializing over a persisted cluster is refused
        unless overwrite is explicit."""
        store = FileStore(tmp_path)
        store.initialize()
        store.register(0)
        store.save(0, "precious")
        store.write_manifest({"topology": {"nodes": [0], "epoch": 0}})
        store.close()
        careless = FileStore(tmp_path)
        with pytest.raises(StateError):
            careless.initialize()
        # The refused initialize must leave the cluster recoverable.
        assert careless.load()["topology"]["nodes"] == [0]
        careless.close()
        forced = FileStore(tmp_path, overwrite=True)
        forced.initialize()
        with pytest.raises(StateError):
            forced.load()  # manifest gone, explicitly
        forced.close()

    def test_simulation_refuses_existing_dir_without_overwrite(
        self, tmp_path
    ):
        config = _durable_config(tmp_path, scale_events=(), failures=())
        ClusterSimulation(config).close()
        with pytest.raises(StateError):
            ClusterSimulation(config)
        replaced = ClusterSimulation(
            _durable_config(
                tmp_path,
                scale_events=(),
                failures=(),
                storage_overwrite=True,
            )
        )
        replaced.close()

    def test_missing_manifest_is_loud(self, tmp_path):
        with pytest.raises(StateError):
            FileStore(tmp_path / "empty").load()

    def test_constructor_has_no_filesystem_side_effects(self, tmp_path):
        """Probing a wrong path (e.g. a typo'd recover_cluster) must not
        litter the filesystem with empty directories."""
        missing = tmp_path / "no" / "such" / "cluster"
        with pytest.raises(StateError):
            recover_cluster(str(missing))
        assert not missing.exists()

    def test_corrupt_manifest_is_loud(self, tmp_path):
        store = FileStore(tmp_path)
        store.initialize()
        store.write_manifest({"topology": {"nodes": [], "epoch": 0}})
        store.close()
        path = tmp_path / "manifest.json"
        path.write_text(path.read_text()[:40])  # truncate mid-record
        with pytest.raises(StateError):
            FileStore(tmp_path).load()


def _durable_config(tmp_path=None, **overrides):
    settings = dict(
        seed=_SEED,
        n_nodes=2,
        template=default_template("exact"),
        buffer_limit=256,
        checkpoint_every=4000,
        routing="ring",
        scale_events=(
            ScaleEvent(at_event=6000, action="add"),
            ScaleEvent(at_event=12_000, action="remove", node_id=1),
        ),
        failures=(
            NodeFailure(at_event=6001, node_id=0),  # crash mid-migration
        ),
    )
    if tmp_path is not None:
        settings.update(storage="file", storage_dir=str(tmp_path))
    settings.update(overrides)
    return ClusterConfig(**settings)


class TestBoundedDurableLog:
    def test_wal_bounded_without_periodic_checkpoints(self):
        """The acceptance regression: checkpoint_every=None + SegmentedLog
        keeps every node's retained log within the segment size."""
        config = ClusterConfig(
            n_nodes=3,
            seed=_SEED,
            checkpoint_every=None,
            wal_segment_events=256,
            template=default_template("simplified_ny"),
        )
        simulation = ClusterSimulation(config)
        result = simulation.run(_events(30_000))
        for node in simulation.nodes:
            assert (
                simulation.store.wal.retained_events(node.node_id) <= 256
            )
        # The forced segment fences actually fired (no periodic budget
        # exists to take checkpoints otherwise).
        assert result.checkpoints > 0

    def test_unbounded_without_segments_still_default(self):
        """checkpoint_every=None alone reproduces the historical
        retain-everything behavior (no silent cadence change)."""
        config = ClusterConfig(
            n_nodes=2,
            seed=_SEED,
            checkpoint_every=None,
            template=default_template("exact"),
        )
        simulation = ClusterSimulation(config)
        result = simulation.run(_events(5000))
        assert result.checkpoints == 0
        assert (
            sum(
                simulation.store.wal.retained_events(node.node_id)
                for node in simulation.nodes
            )
            == 5000
        )


class TestBackendDeterminism:
    def test_crash_during_migration_bit_identical(self, tmp_path):
        """Same seed → bit-identical results for memory and file stores,
        with a crash scheduled right after a migration."""
        with ClusterSimulation(_durable_config()) as simulation:
            memory = simulation.run(_events(18_000))
        with ClusterSimulation(
            _durable_config(tmp_path / "cluster")
        ) as simulation:
            file_backed = simulation.run(_events(18_000))
        assert memory.node_stats == file_backed.node_stats
        assert memory.top == file_backed.top
        assert memory.rms_relative_error == file_backed.rms_relative_error
        assert memory.total_state_bits == file_backed.total_state_bits

    def test_crash_after_collapse_bit_identical(self, tmp_path):
        """Retention collapse + post-collapse crash behaves identically
        on both backends (approximate template: RNG paths must align)."""
        overrides = dict(
            template=default_template("simplified_ny"),
            retention=TumblingRetention(window_events=5000),
            failures=(NodeFailure(at_event=5001, node_id=0),),
            scale_events=(),
        )
        with ClusterSimulation(_durable_config(**overrides)) as simulation:
            memory = simulation.run(_events(15_000))
        with ClusterSimulation(
            _durable_config(tmp_path / "cluster", **overrides)
        ) as simulation:
            file_backed = simulation.run(_events(15_000))
        assert memory.windows_collapsed == 2
        assert memory.node_stats == file_backed.node_stats
        assert memory.top == file_backed.top
        assert memory.rms_relative_error == file_backed.rms_relative_error

    def test_segment_fences_identical_across_backends(self, tmp_path):
        """Forced segment fences fire at the same positions regardless
        of backend (checkpoint counts must match exactly)."""
        overrides = dict(
            checkpoint_every=None,
            wal_segment_events=512,
            template=default_template("simplified_ny"),
        )
        with ClusterSimulation(_durable_config(**overrides)) as simulation:
            memory = simulation.run(_events(12_000))
        with ClusterSimulation(
            _durable_config(tmp_path / "cluster", **overrides)
        ) as simulation:
            file_backed = simulation.run(_events(12_000))
        assert memory.checkpoints == file_backed.checkpoints > 0
        assert memory.node_stats == file_backed.node_stats


class TestRecoverCluster:
    def test_recovers_pre_crash_view_bit_for_bit(self, tmp_path):
        """The acceptance scenario: exact templates, crash mid-migration,
        full recovery from the store directory alone."""
        with ClusterSimulation(_durable_config(tmp_path)) as simulation:
            result = simulation.run(_events(18_000))
            assert result.max_relative_error == 0.0
            assert result.recoveries >= 1
            before = _view_fingerprint(simulation.aggregator.global_view())
        with recover_cluster(str(tmp_path)) as recovered:
            after = _view_fingerprint(recovered.aggregator.global_view())
        assert before == after

    def test_recovered_topology_matches(self, tmp_path):
        with ClusterSimulation(_durable_config(tmp_path)) as simulation:
            simulation.run(_events(18_000))
        with recover_cluster(str(tmp_path)) as recovered:
            assert recovered.router.epoch == simulation.router.epoch
            assert recovered.router.nodes == simulation.router.nodes
            assert [n.node_id for n in recovered.nodes] == [
                n.node_id for n in simulation.nodes
            ]
            # Recovery bumps every incarnation: replicas never share
            # future coin flips with the dead cluster.
            for node_id in recovered.router.nodes:
                assert (
                    recovered._incarnation[node_id]
                    == simulation._incarnation[node_id] + 1
                )

    def test_recovered_cluster_keeps_counting(self, tmp_path):
        """A recovered exact cluster keeps perfect counts for new
        traffic — recovery is a working cluster, not a read-only view."""
        with ClusterSimulation(_durable_config(tmp_path)) as simulation:
            simulation.run(_events(18_000))
            truth_before = simulation.aggregator.global_view().truth
        extra = [KeyedEvent("page-000000", 5), KeyedEvent("fresh-key", 7)]
        with recover_cluster(str(tmp_path)) as recovered:
            for event in extra:
                recovered.deliver_event(event)
            view = recovered.aggregator.global_view()
        assert view.estimate("fresh-key") == 7.0
        assert (
            view.estimate("page-000000")
            == truth_before["page-000000"] + 5
        )

    def test_truncated_checkpoint_is_loud(self, tmp_path):
        with ClusterSimulation(_durable_config(tmp_path)) as simulation:
            simulation.run(_events(18_000))
        victim = sorted(tmp_path.glob("checkpoints/node-*.ckpt"))[0]
        line = victim.read_text()
        victim.write_text(line[: len(line) // 2])  # torn write
        with pytest.raises(StateError):
            recover_cluster(str(tmp_path))

    def test_bit_flipped_checkpoint_is_loud(self, tmp_path):
        with ClusterSimulation(_durable_config(tmp_path)) as simulation:
            simulation.run(_events(18_000))
        victim = sorted(tmp_path.glob("checkpoints/node-*.ckpt"))[0]
        line = victim.read_text()
        flipped = line.replace('"seed"', '"sEed"', 1)
        assert flipped != line
        victim.write_text(flipped)
        with pytest.raises(StateError):
            recover_cluster(str(tmp_path))

    def test_recovery_refuses_mid_migration_without_journal(self, tmp_path):
        """Migrated counters reach durability only at the closing fence
        checkpoints; if the writer died inside that window *and* the
        store holds no migration journal (a pre-journal store, or the
        journal itself was lost), counters may be missing from every
        checkpoint — recovery must still refuse loudly instead of
        rebuilding a silently wrong cluster."""
        simulation = ClusterSimulation(
            _durable_config(tmp_path, scale_events=(), failures=())
        )
        simulation.run(_events(3000))
        # Persist the state a process death mid-_rebalance leaves
        # behind, minus the journal lines.
        simulation._mid_migration = True
        simulation._sync_manifest()
        simulation.close()
        with pytest.raises(StateError, match="mid-migration"):
            recover_cluster(str(tmp_path))

    def test_mid_migration_death_recovers_from_journal(self, tmp_path):
        """Death between a batch's drain and its closing fences loses
        nothing: every batch line was journaled durably *before* its
        absorb, so recovery replays the journal and finishes the move.

        The victim dies at the first fence checkpoint of a scale-up
        rebalance — the worst spot: counters drained from their source
        live only in the journal.  The recovered cluster must hold the
        complete pre-migration key set *and* the completed move (same
        per-node ownership as an undisturbed reference run).
        """
        events = list(_events(3000))
        overrides = dict(scale_events=(), failures=())

        reference = ClusterSimulation(
            _durable_config(tmp_path / "reference", **overrides)
        )
        reference.run(events)
        reference.scale_up()
        reference_view = _view_fingerprint(
            reference.aggregator.global_view()
        )
        reference_keys = {
            node.node_id: sorted(node.bank.keys())
            for node in reference.nodes
        }
        reference.close()

        victim = ClusterSimulation(
            _durable_config(tmp_path / "victim", **overrides)
        )
        victim.run(events)
        boom = RuntimeError("simulated process death at the fence")

        def dying_checkpoint(node_id):
            raise boom

        victim.checkpoint_node = dying_checkpoint
        with pytest.raises(RuntimeError):
            victim.scale_up()
        # Close the files the way a dead process would: no manifest
        # resync, the mid_migration flag stays set on disk.
        victim._store.close()

        recovered = recover_cluster(str(tmp_path / "victim"))
        assert (
            _view_fingerprint(recovered.aggregator.global_view())
            == reference_view
        )
        assert {
            node.node_id: sorted(node.bank.keys())
            for node in recovered.nodes
        } == reference_keys
        # The journal was consumed; a second recovery is clean.
        assert recovered.store.pending_migrations() == []
        recovered.close()
        second = recover_cluster(str(tmp_path / "victim"))
        assert (
            _view_fingerprint(second.aggregator.global_view())
            == reference_view
        )
        second.close()

    def test_stale_journal_after_completed_migration_is_ignored(
        self, tmp_path
    ):
        """Death between the completion manifest sync and the journal
        unlink leaves flag=False plus a stale journal; recovery must
        ignore and clear it, not double-apply the batches."""
        simulation = ClusterSimulation(_durable_config(tmp_path))
        journaled: list[str] = []
        simulation.set_migration_observer(journaled.append)
        simulation.run(_events(18_000))
        simulation.set_migration_observer(None)
        before = _view_fingerprint(simulation.aggregator.global_view())
        assert journaled  # the scale events really migrated batches
        # Re-create the stale leftover: journal lines present, flag off.
        for line in journaled:
            simulation.store.journal_migration(line)
        simulation.close()
        with recover_cluster(str(tmp_path)) as recovered:
            assert (
                _view_fingerprint(recovered.aggregator.global_view())
                == before
            )

    def test_completed_migration_recovers_fine(self, tmp_path):
        """The mid-migration flag clears once the fences land: a run
        whose scale events completed recovers normally."""
        simulation = ClusterSimulation(_durable_config(tmp_path))
        simulation.run(_events(18_000))
        simulation.close()
        recovered = recover_cluster(str(tmp_path))
        assert recovered.router.epoch == 2
        recovered.close()

    def test_wal_gap_is_loud(self, tmp_path):
        """Losing a whole WAL segment (or its tail lines, with a
        successor present) must raise StateError, not misalign replay."""
        store = FileStore(tmp_path, wal_segment_events=3)
        store.initialize()
        store.register(0)
        for i in range(8):
            store.wal.append(0, KeyedEvent(f"k{i}"))
        store.close()
        files = sorted((tmp_path / "wal" / "node-0").glob("seg-*.log"))
        assert len(files) == 3
        files[1].unlink()  # lose the middle segment
        broken = FileStore(tmp_path)
        with pytest.raises(StateError, match="WAL gap"):
            broken.wal.load(0)
        broken.close()

    def test_wal_lost_tail_lines_are_loud(self, tmp_path):
        store = FileStore(tmp_path, wal_segment_events=3)
        store.initialize()
        store.register(0)
        for i in range(6):
            store.wal.append(0, KeyedEvent(f"k{i}"))
        store.close()
        first = sorted((tmp_path / "wal" / "node-0").glob("seg-*.log"))[0]
        lines = first.read_text().splitlines()
        first.write_text("\n".join(lines[:-1]) + "\n")  # lost last line
        broken = FileStore(tmp_path)
        with pytest.raises(StateError, match="WAL gap"):
            broken.wal.load(0)
        broken.close()

    def test_memory_cluster_cannot_recover(self):
        simulation = ClusterSimulation(_durable_config())
        simulation.run(_events(5000))
        with pytest.raises(StateError):
            simulation.store.load()

    def test_reopening_takes_no_spurious_checkpoint(self, tmp_path):
        """A partial WAL segment re-loaded from disk must not read as a
        'filled segment awaiting a fence': recovery may only checkpoint
        a genuinely overdue node, so merely re-opening a store never
        rewrites its checkpoints or truncates its log."""
        config = _durable_config(
            tmp_path,
            scale_events=(),
            failures=(),
            checkpoint_every=1000,
            wal_segment_events=500,
        )
        simulation = ClusterSimulation(config)
        simulation.run(_events(50))  # far below every budget
        assert simulation._tenure_counts(0) == (0, 0)
        assert simulation._tenure_counts(1) == (0, 0)
        retained = {
            node.node_id: simulation.store.wal.retained_events(
                node.node_id
            )
            for node in simulation.nodes
        }
        assert sum(retained.values()) == 50
        simulation.close()
        recovered = recover_cluster(str(tmp_path))
        assert recovered._tenure_counts(0)[0] == 0
        assert recovered._tenure_counts(1)[0] == 0
        for node_id, events in retained.items():
            assert (
                recovered.store.wal.retained_events(node_id) == events
            )
        recovered.close()

    def test_crash_inside_fence_does_not_lose_later_events(self, tmp_path):
        """A crash *inside* the fence (segment files unlinked, fresh
        active segment not yet created) resets the on-disk sequence
        record to nothing; recovery must re-anchor the sequence at the
        checkpoint's wal_seq, or events delivered after that recovery
        would recycle covered sequence numbers and be truncated away —
        silently lost — by the *next* recovery."""
        config = _durable_config(
            tmp_path, scale_events=(), failures=(), checkpoint_every=None
        )
        simulation = ClusterSimulation(config)
        for event in _events(500):
            simulation.deliver_event(event)
        for node in simulation.nodes:
            simulation.checkpoint_node(node.node_id)
        simulation.close()
        # Mimic the mid-fence crash: the fence's unlinks landed, the
        # fresh active segment file did not.
        for path in tmp_path.glob("wal/node-*/seg-*.log"):
            path.unlink()
        first = recover_cluster(str(tmp_path))
        extra = [KeyedEvent(f"extra-{i}") for i in range(30)]
        for event in extra:
            first.deliver_event(event)
        first.close()
        # Crash again before any checkpoint: the 30 post-recovery
        # events exist only in the WAL and must survive replay.
        second = recover_cluster(str(tmp_path))
        view = second.aggregator.global_view()
        for i in range(30):
            assert view.estimate(f"extra-{i}") == 1.0, f"extra-{i} lost"
        second.close()

    def test_torn_fence_does_not_double_count(self, tmp_path, monkeypatch):
        """The torn-fence protocol: a process death between saving a
        checkpoint and fencing the WAL leaves both the checkpoint and
        the covered events on disk — recovery must not replay them on
        top of themselves."""
        config = _durable_config(
            tmp_path, scale_events=(), failures=(), checkpoint_every=None
        )
        simulation = ClusterSimulation(config)
        stream = list(_events(2000))
        for event in stream:
            simulation.deliver_event(event)
        truth = simulation.aggregator.global_view().truth
        # Take a checkpoint whose fence "never happens" (process dies
        # between the atomic checkpoint replace and the WAL unlink).
        monkeypatch.setattr(
            simulation.store.wal, "fence", lambda node_id: None
        )
        for node in simulation.nodes:
            simulation.checkpoint_node(node.node_id)
        assert (
            sum(
                simulation.store.wal.retained_events(node.node_id)
                for node in simulation.nodes
            )
            == 2000  # the log still holds everything the ckpt covers
        )
        simulation.close()
        recovered = recover_cluster(str(tmp_path))
        view = recovered.aggregator.global_view()
        assert view.truth == truth  # not doubled
        assert {
            key: counter.estimate()
            for key, counter in view.counters.items()
        } == {key: float(count) for key, count in truth.items()}
        recovered.close()


class TestConfigValidation:
    def test_file_storage_requires_dir(self):
        with pytest.raises(ParameterError):
            ClusterConfig(storage="file")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ParameterError):
            ClusterConfig(storage="kv")

    def test_wal_segment_validation(self):
        with pytest.raises(ParameterError):
            ClusterConfig(wal_segment_events=0)

    def test_traffic_table_limit_validation(self):
        with pytest.raises(ParameterError):
            ClusterConfig(traffic_table_limit=0)
