"""Cluster benchmark: events/sec and global error vs node count.

Runs the distributed counting cluster over the Zipf workload at 1, 2, 4
and 8 nodes, measuring ingest throughput, merged-view relative error, and
state bits — the scaling story of Remark 2.4 (sharding is free in
accuracy) made measurable.  Results land in
``benchmarks/results/BENCH_cluster.json`` with the shared schema
(``benchmark`` / ``seed`` / ``workload`` / ``rows``).

A second scenario measures *elasticity*: a cluster that scales 2→4→3
mid-stream (with live key migration and a tumbling retention policy)
against a static 3-node run of the same workload — rebalancing must stay
within 1.5× of the static topology's rms error at equal state bits,
because key migration is just merging (Remark 2.4).  Results land in
``benchmarks/results/BENCH_cluster_elastic.json``.

A third scenario measures *durability*: the same crash-recovery workload
on the in-process ``memory`` store versus the persisted ``file`` store
(checkpoints + segmented write-ahead log on disk), at provably equal
accuracy — the backend may only change where durable state lives, never
what the cluster computes, so both rows must report bit-identical error.
It also re-opens the file store with ``recover_cluster`` and asserts the
recovered ``exact``-template view reproduces the pre-crash run bit for
bit, crashes mid-migration included.  Results land in
``benchmarks/results/BENCH_cluster_durability.json``.

A fourth scenario measures *parallel ingest throughput*: the same
durable (group-commit fsync) ingest workload delivered by the serial
event loop versus worker-sharded delivery at 2, 4, and 8 ingest
workers.  The worker count may only change wall-clock numbers — every
row must report bit-identical accuracy, and a separate
``exact``-template run (crash + live migration included) pins the
parallel ``GlobalView`` bit-for-bit against serial.  The full run must
show ≥ 1.5× events/sec at 4 workers, and a calibrated op-accounting
estimate over an instrumented serial run must show the observability
layer costs ≤ 5% (``telemetry_overhead_pct``).  A weighted-feed arm compares per-unit
coin flips against the geometric skip-ahead fast-forward
(``consume_mode``) on a heavy-count stream — ≥ 5× on full runs, with
an exact-template fingerprint proof that the mode never changes what
any plan computes — and full runs append the measurement to the
committed trajectory file
``benchmarks/trajectory/BENCH_cluster_throughput_trajectory.json``.
Results land in ``benchmarks/results/BENCH_cluster_throughput.json``.

Every scenario row embeds the run's end-of-run telemetry snapshot
(``row["metrics"]``: counters / gauges / histograms / stages from
:mod:`repro.obs`), so benchmark artifacts double as metrics exports;
``scripts/check_bench_json.py`` validates the embedded schema.

A fifth scenario measures *gossip aggregation*: clusters of 2, 4 and 8
nodes running ``aggregation="gossip"`` on ``exact`` templates (a crash
mid-run included), recording rounds-to-convergence after the stream,
the maximum pre-convergence staleness in events, and whether every
node's decentralized read equals the central merge-tree answer bit for
bit (it must).  Results land in
``benchmarks/results/BENCH_cluster_gossip.json``.

A sixth scenario measures *self-healing membership*: clusters of 2, 4
and 8 nodes with ``membership=True`` lose their last node mid-stream to
a kill the driver never heals (``NodeFailure(heal=False)``) — the
gossip-driven failure detector must suspect it, confirm the failure by
quorum vote, and heal it on the cluster's own authority.  Per node
count the payload records detection latency in gossip rounds (bounded
by ``suspect_after`` + O(log n) dissemination) and whether the
self-healed run's ``exact``-template global view is bit-identical to a
driver-healed reference run of the same seed (it must be — recovery is
lossless either way).  Results land in
``benchmarks/results/BENCH_cluster_membership.json``.

A seventh scenario measures *serving*: the finished cluster behind the
PR-9 read surface (:class:`~repro.cluster.query.ClusterReader` plus the
:mod:`~repro.cluster.httpd` HTTP/SSE frontend) at 1, 2 and 4 replicas
on ``exact`` templates with gossip aggregation.  Per replica count it
records replica-read queries/sec and the read-cache hit rate, asserts
the reported staleness bound never exceeds the configured
``gossip_every`` window, pins every replica's digest read bit-identical
to ``global_view()`` after convergence, and proves serving is inert: a
run that was served (every HTTP endpoint exercised, SSE included) ends
with a fingerprint identical to an unserved run of the same seed.
Results land in ``benchmarks/results/BENCH_cluster_serving.json``.

Entry points:

* pytest-benchmark (``pytest benchmarks/bench_cluster.py``) — the full
  sweep plus crash-recovery, elasticity, durability, throughput,
  gossip, membership, and serving benchmarks;
* script mode (``python benchmarks/bench_cluster.py [-q] [--scenario
  scaling|elastic|durability|throughput|gossip|membership|serving]``)
  — the same runs standalone;
  ``-q`` is the smoke path used by tier-1 tests (reduced workload, same
  schema, seconds not minutes).  Scenarios live in the ``_SCENARIOS``
  registry; an unknown ``--scenario`` is a clean argparse error listing
  the valid names.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import time
import urllib.request
from pathlib import Path
from typing import Callable, NamedTuple

from _bench_utils import write_json_result, write_result

from repro.cluster import (
    ClusterConfig,
    ClusterReader,
    ClusterSimulation,
    NodeFailure,
    ScaleEvent,
    TumblingRetention,
    default_template,
    recover_cluster,
    view_fingerprint,
)
from repro.cluster.httpd import serve_http
from repro.experiments.records import TextTable
from repro.obs import Telemetry
from repro.rng.bitstream import BitBudgetedRandom
from repro.stream.workload import weighted_zipf_workload, zipf_workload

_SEED = 2020_10_06
_FULL_EVENTS = 1_000_000
_QUICK_EVENTS = 20_000
_KEYS = 2000
_EXPONENT = 1.1
_NODE_SWEEP = (1, 2, 4, 8)


def _run_sweep(n_events: int) -> dict:
    """Sweep node counts over the same workload; returns the JSON payload."""
    rows = []
    for n_nodes in _NODE_SWEEP:
        config = ClusterConfig(
            n_nodes=n_nodes,
            template=default_template("simplified_ny"),
            seed=_SEED,
            buffer_limit=512,
            checkpoint_every=max(n_events // (4 * n_nodes), 1000),
            failures=(
                # Crash the last node mid-run in every multi-node config:
                # recovery is part of the steady state being measured.
                (NodeFailure(at_event=n_events // 2, node_id=n_nodes - 1),)
                if n_nodes > 1
                else ()
            ),
        )
        events = zipf_workload(
            BitBudgetedRandom(_SEED),
            n_keys=_KEYS,
            n_events=n_events,
            exponent=_EXPONENT,
        )
        with ClusterSimulation(config) as simulation:
            result = simulation.run(events)
            metrics = simulation.metrics_snapshot()
        rows.append(
            {
                "nodes": n_nodes,
                "events": result.total_events,
                "keys": result.n_keys,
                "events_per_sec": round(result.events_per_sec, 1),
                "mean_relative_error": result.mean_relative_error,
                "rms_relative_error": result.rms_relative_error,
                "max_relative_error": result.max_relative_error,
                "state_bits": result.total_state_bits,
                "merge_rounds": result.merge_rounds,
                "checkpoints": result.checkpoints,
                "recoveries": result.recoveries,
                "metrics": metrics,
            }
        )
    return {
        "benchmark": "cluster",
        "seed": _SEED,
        "workload": {
            "kind": "zipf",
            "events": n_events,
            "keys": _KEYS,
            "exponent": _EXPONENT,
        },
        "rows": rows,
    }


def _render(payload: dict) -> str:
    table = TextTable(
        ["nodes", "events/s", "rms err", "max err", "state bits", "recov"]
    )
    for row in payload["rows"]:
        table.add_row(
            str(row["nodes"]),
            f"{row['events_per_sec']:,.0f}",
            f"{100 * row['rms_relative_error']:.3f}%",
            f"{100 * row['max_relative_error']:.3f}%",
            f"{row['state_bits']:,}",
            str(row["recoveries"]),
        )
    workload = payload["workload"]
    return "\n".join(
        [
            "Cluster scaling — events/sec and merged-view error vs nodes",
            f"zipf({workload['exponent']}) {workload['events']:,} events "
            f"over {workload['keys']:,} keys, seed {payload['seed']}",
            "",
            table.render(),
            "",
            "Remark 2.4 check: error stays flat as node count grows — "
            "sharded merge is exact.",
        ]
    )


def _check(payload: dict) -> None:
    """The invariants any sweep (full or quick) must satisfy."""
    rows = payload["rows"]
    assert [row["nodes"] for row in rows] == list(_NODE_SWEEP)
    single = rows[0]
    for row in rows:
        assert row["events"] == payload["workload"]["events"]
        # Sharding must not degrade accuracy (Remark 2.4): every
        # multi-node rms error stays within noise of the single node's.
        assert row["rms_relative_error"] < max(
            3 * single["rms_relative_error"], 0.02
        )
        if row["nodes"] > 1:
            assert row["recoveries"] >= 1


# ----------------------------------------------------------------------
# elastic scenario: 2→4→3 with retention vs a static 3-node run
# ----------------------------------------------------------------------
def _elastic_row(label: str, result, metrics: dict) -> dict:
    return {
        "scenario": label,
        "nodes_final": result.n_nodes,
        "events": result.total_events,
        "keys": result.n_keys,
        "events_per_sec": round(result.events_per_sec, 1),
        "rms_relative_error": result.rms_relative_error,
        "max_relative_error": result.max_relative_error,
        "state_bits": result.total_state_bits,
        "epoch": result.epoch,
        "keys_migrated": result.keys_migrated,
        "migration_bytes": result.migration_bytes,
        "windows_collapsed": result.windows_collapsed,
        "recoveries": result.recoveries,
        "metrics": metrics,
    }


def _run_elastic(n_events: int) -> dict:
    """Elastic 2→4→3 run vs static 3-node run; returns the JSON payload.

    Both runs see the identical workload, counter template, and tumbling
    retention policy, so the only difference is live topology change —
    which Remark 2.4 says should cost nothing in accuracy.
    """
    retention = lambda: TumblingRetention(  # noqa: E731 - fresh per run
        window_events=max(n_events // 3, 1)
    )
    shared = dict(
        template=default_template("simplified_ny"),
        seed=_SEED,
        buffer_limit=512,
        checkpoint_every=max(n_events // 8, 1000),
        routing="ring",
    )
    static_config = ClusterConfig(
        n_nodes=3, retention=retention(), **shared
    )
    elastic_config = ClusterConfig(
        n_nodes=2,
        retention=retention(),
        scale_events=(
            ScaleEvent(at_event=n_events // 4, action="add"),
            ScaleEvent(at_event=n_events // 2, action="add"),
            ScaleEvent(
                at_event=(3 * n_events) // 4, action="remove", node_id=1
            ),
        ),
        **shared,
    )
    rows = []
    for label, config in (
        ("static", static_config),
        ("elastic", elastic_config),
    ):
        events = zipf_workload(
            BitBudgetedRandom(_SEED),
            n_keys=_KEYS,
            n_events=n_events,
            exponent=_EXPONENT,
        )
        with ClusterSimulation(config) as simulation:
            result = simulation.run(events)
            metrics = simulation.metrics_snapshot()
        rows.append(_elastic_row(label, result, metrics))
    return {
        "benchmark": "cluster_elastic",
        "seed": _SEED,
        "workload": {
            "kind": "zipf",
            "events": n_events,
            "keys": _KEYS,
            "exponent": _EXPONENT,
        },
        "rows": rows,
    }


def _render_elastic(payload: dict) -> str:
    table = TextTable(
        [
            "scenario",
            "final nodes",
            "rms err",
            "state bits",
            "migrated",
            "windows",
        ]
    )
    for row in payload["rows"]:
        table.add_row(
            row["scenario"],
            str(row["nodes_final"]),
            f"{100 * row['rms_relative_error']:.3f}%",
            f"{row['state_bits']:,}",
            f"{row['keys_migrated']:,}",
            str(row["windows_collapsed"]),
        )
    workload = payload["workload"]
    return "\n".join(
        [
            "Elastic scaling — 2→4→3 live rebalance vs static 3-node run",
            f"zipf({workload['exponent']}) {workload['events']:,} events "
            f"over {workload['keys']:,} keys, seed {payload['seed']}",
            "",
            table.render(),
            "",
            "Remark 2.4 check: live key migration (merge-based) keeps rms "
            "error within 1.5x of the static topology at equal state bits.",
        ]
    )


def _check_elastic(payload: dict) -> None:
    """The elastic-scenario invariants (full or quick)."""
    rows = {row["scenario"]: row for row in payload["rows"]}
    static, elastic = rows["static"], rows["elastic"]
    assert static["events"] == elastic["events"]
    assert elastic["nodes_final"] == static["nodes_final"] == 3
    assert elastic["epoch"] == 3 and elastic["keys_migrated"] > 0
    assert elastic["windows_collapsed"] >= 2
    # Rebalancing is merge-based, so it must not degrade accuracy:
    # within 1.5x of the static run (with an absolute floor for runs
    # where both errors are within sampling noise of zero).
    assert elastic["rms_relative_error"] <= max(
        1.5 * static["rms_relative_error"], 0.005
    )
    # ... at comparable state: same template, same key horizon.
    assert elastic["state_bits"] <= 1.5 * static["state_bits"]


# ----------------------------------------------------------------------
# durability scenario: memory vs file stores at equal accuracy
# ----------------------------------------------------------------------
def _run_durability(n_events: int) -> dict:
    """Memory vs file durability run + recovery-from-disk check.

    Both rows drive the identical crash-recovery workload; the only
    difference is the storage backend, so accuracy must match *bit for
    bit* while events/sec and retained bytes show what persistence
    costs.  A second, ``exact``-template file run with a crash right
    after a migration is then re-opened from disk via
    :func:`~repro.cluster.simulation.recover_cluster` and its recovered
    global view compared with the pre-crash view.
    """
    shared = dict(
        n_nodes=4,
        template=default_template("simplified_ny"),
        seed=_SEED,
        buffer_limit=512,
        checkpoint_every=max(n_events // 8, 1000),
        wal_segment_events=max(n_events // 16, 512),
        failures=(NodeFailure(at_event=n_events // 2, node_id=3),),
    )
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for label in ("memory", "file"):
            config = ClusterConfig(
                storage=label,
                storage_dir=(f"{tmp}/bench" if label == "file" else None),
                **shared,
            )
            events = zipf_workload(
                BitBudgetedRandom(_SEED),
                n_keys=_KEYS,
                n_events=n_events,
                exponent=_EXPONENT,
            )
            with ClusterSimulation(config) as simulation:
                result = simulation.run(events)
                metrics = simulation.metrics_snapshot()
            rows.append(
                {
                    "scenario": label,
                    "events": result.total_events,
                    "events_per_sec": round(result.events_per_sec, 1),
                    "rms_relative_error": result.rms_relative_error,
                    "max_relative_error": result.max_relative_error,
                    "storage_bytes": result.storage_bytes,
                    "checkpoints": result.checkpoints,
                    "recoveries": result.recoveries,
                    "metrics": metrics,
                }
            )
        # Recovery-from-disk proof on exact templates: crash one node
        # right after a migration, run to the end, then rebuild the
        # whole cluster from the store directory alone.
        exact_dir = f"{tmp}/exact"
        config = ClusterConfig(
            n_nodes=2,
            template=default_template("exact"),
            seed=_SEED,
            checkpoint_every=max(n_events // 8, 1000),
            routing="ring",
            scale_events=(
                ScaleEvent(at_event=n_events // 3, action="add"),
            ),
            failures=(
                NodeFailure(at_event=n_events // 3 + 1, node_id=0),
            ),
            storage="file",
            storage_dir=exact_dir,
        )
        events = zipf_workload(
            BitBudgetedRandom(_SEED),
            n_keys=_KEYS,
            n_events=n_events,
            exponent=_EXPONENT,
        )
        with ClusterSimulation(config) as simulation:
            simulation.run(events)
            before = simulation.aggregator.global_view()
        with recover_cluster(exact_dir) as recovered:
            after = recovered.aggregator.global_view()
        recovery_bit_identical = view_fingerprint(
            before
        ) == view_fingerprint(after)
    return {
        "benchmark": "cluster_durability",
        "seed": _SEED,
        "workload": {
            "kind": "zipf",
            "events": n_events,
            "keys": _KEYS,
            "exponent": _EXPONENT,
        },
        "rows": rows,
        "recovery_bit_identical": recovery_bit_identical,
    }


def _render_durability(payload: dict) -> str:
    table = TextTable(
        [
            "scenario",
            "events/s",
            "rms err",
            "store bytes",
            "ckpts",
            "recov",
        ]
    )
    for row in payload["rows"]:
        table.add_row(
            row["scenario"],
            f"{row['events_per_sec']:,.0f}",
            f"{100 * row['rms_relative_error']:.3f}%",
            f"{row['storage_bytes']:,}",
            str(row["checkpoints"]),
            str(row["recoveries"]),
        )
    workload = payload["workload"]
    return "\n".join(
        [
            "Durability — in-process memory store vs on-disk file store",
            f"zipf({workload['exponent']}) {workload['events']:,} events "
            f"over {workload['keys']:,} keys, seed {payload['seed']}",
            "",
            table.render(),
            "",
            "Equal-accuracy check: the storage backend changes where "
            "durable state lives, never what the cluster computes.",
            "recovery from disk (exact templates, crash mid-migration): "
            + (
                "bit-identical"
                if payload["recovery_bit_identical"]
                else "MISMATCH"
            ),
        ]
    )


def _check_durability(payload: dict) -> None:
    """The durability-scenario invariants (full or quick)."""
    rows = {row["scenario"]: row for row in payload["rows"]}
    memory, file = rows["memory"], rows["file"]
    assert memory["events"] == file["events"]
    # The backend must not change the computation: bit-identical error.
    assert memory["rms_relative_error"] == file["rms_relative_error"]
    assert memory["max_relative_error"] == file["max_relative_error"]
    assert memory["checkpoints"] == file["checkpoints"]
    assert memory["recoveries"] == file["recoveries"] >= 1
    assert file["storage_bytes"] > 0
    assert payload["recovery_bit_identical"] is True


# ----------------------------------------------------------------------
# throughput scenario: serial vs worker-sharded durable ingest
# ----------------------------------------------------------------------
_WORKER_SWEEP = (1, 2, 4, 8)
_THROUGHPUT_NODES = 8
#: Group-commit cadence.  fsync releases the GIL, so this is the stall
#: the worker pool overlaps — the honest source of thread speedup for a
#: pure-Python ingest path.
_THROUGHPUT_FSYNC = 4
_THROUGHPUT_BATCH = 64
#: The full throughput run is scenario-specific: fsync-per-4-appends
#: makes 1M-event rows needlessly slow without changing the story.
_THROUGHPUT_FULL_EVENTS = 400_000
#: The process arm compares serial / thread-parallel / process plans
#: at these node counts (one worker process per node).
_PROCESS_NODE_SWEEP = (2, 4)
#: Pipe IPC makes full-length process rows needlessly slow without
#: changing the comparison; cap the process arm's stream length.
_PROCESS_ARM_EVENTS_CAP = _THROUGHPUT_FULL_EVENTS // 4
#: The weighted (heavy-count) arm: every event carries ~256 increments,
#: so per-unit ingestion pays ~256 coin flips per event while skip-ahead
#: pays O(1) expected draws per *state change*.
_SKIPAHEAD_MEAN_COUNT = 256
#: At mean weight 256 a 50k-event stream is ~12.8M increments — enough
#: to dominate fixed costs without making the per-unit arm take minutes.
_SKIPAHEAD_EVENTS_CAP = _THROUGHPUT_FULL_EVENTS // 8
#: Smoke runs (and the smoke-size re-measurement a full run records for
#: CI's regression gate) use a shorter stream: at ~1.3M increments the
#: ratio is already stable and the per-unit arm stays in seconds.
_SKIPAHEAD_SMOKE_EVENTS = 5_000
#: Committed (not gitignored) history of the skip-ahead arm: full runs
#: append one row here; smoke runs never touch it.  CI's regression
#: gate compares fresh smoke rows against the latest committed row.
_TRAJECTORY_PATH = (
    Path(__file__).resolve().parent
    / "trajectory"
    / "BENCH_cluster_throughput_trajectory.json"
)


def _run_skipahead_arms(n_events: int) -> tuple[list[dict], float]:
    """Per-unit vs skip-ahead consumption of the weighted workload.

    Identical serial memory-store clusters and identical pre-aggregated
    (weighted) event streams; only ``consume_mode`` differs.  Returns
    the two rows plus the skip-ahead arm's speedup over per-unit.

    The arm runs the ``morris`` template: its accept probability decays
    geometrically with the counter value, so the expected gap between
    state changes *grows* with the stream and the skip-ahead advantage
    compounds at scale (shallow-decay templates like ``simplified_ny``
    at resolution 1024, or ``nelson_yu`` at epsilon 0.1, keep their
    accept rates high enough that the capped bit-identical coin
    protocol — computationally per-unit — bounds the win to ~2-3x).
    """
    rows = []
    for arm in ("per_unit", "skip_ahead"):
        config = ClusterConfig(
            n_nodes=_THROUGHPUT_NODES,
            template=default_template("morris"),
            seed=_SEED,
            buffer_limit=512,
            checkpoint_every=None,
            plan="serial",
            consume_mode=arm,
        )
        events = weighted_zipf_workload(
            BitBudgetedRandom(_SEED),
            n_keys=_KEYS,
            n_events=n_events,
            exponent=_EXPONENT,
            mean_count=_SKIPAHEAD_MEAN_COUNT,
        )
        with ClusterSimulation(
            config, telemetry=Telemetry.disabled()
        ) as simulation:
            result = simulation.run(events)
            metrics = simulation.metrics_snapshot()
        rows.append(
            {
                "arm": arm,
                "events": n_events,
                "increments": result.total_events,
                "events_per_sec": round(result.events_per_sec, 1),
                "rms_relative_error": result.rms_relative_error,
                "max_relative_error": result.max_relative_error,
                "state_bits": result.total_state_bits,
                "metrics": metrics,
            }
        )
    speedup = round(
        rows[1]["events_per_sec"] / rows[0]["events_per_sec"], 3
    )
    for row in rows:
        row["speedup_vs_per_unit"] = round(
            row["events_per_sec"] / rows[0]["events_per_sec"], 3
        )
    return rows, speedup


def _run_throughput(n_events: int) -> dict:
    """Serial vs 2/4/8-worker delivery on a durable ingest tier.

    Every row drives the identical workload and config except
    ``ingest_workers`` — a file-backed store whose WAL group-commits
    (fsyncs) every ``_THROUGHPUT_FSYNC`` appends, i.e. the deployment
    where delivery actually blocks.  Accuracy must be bit-identical
    across rows (the plan may never change what the cluster computes);
    a second, ``exact``-template comparison with a crash and a live
    migration mid-stream pins serial-vs-parallel bit-identity of the
    full ``GlobalView``.

    A third arm compares execution *plans* — serial vs thread-parallel
    vs per-node OS worker processes (``plan="process"``) — on a
    CPU-bound memory-store configuration at 2 and 4 nodes, and extends
    the exact-template bit-identity proof to the process plan.  The
    process speedup bar (>1x vs thread-parallel at 4 nodes) only
    applies to full runs on multi-core machines; the payload records
    ``cpus`` so the gate is auditable.

    The sweep arms run with the wall-clock telemetry layers disabled so
    the 1.5× speedup bar measures only the execution plan; a separate
    instrumented serial run plus in-situ per-op calibration (see
    :func:`_measure_telemetry_overhead`) reports
    ``telemetry_overhead_pct`` — the observability layer's acceptance
    bar is ≤ 5% on full runs.
    """
    throughput_events = min(n_events, _THROUGHPUT_FULL_EVENTS)
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for workers in _WORKER_SWEEP:
            config = ClusterConfig(
                n_nodes=_THROUGHPUT_NODES,
                template=default_template("simplified_ny"),
                seed=_SEED,
                buffer_limit=512,
                checkpoint_every=max(throughput_events // 8, 1000),
                storage="file",
                storage_dir=f"{tmp}/workers-{workers}",
                wal_fsync_every=_THROUGHPUT_FSYNC,
                ingest_workers=workers,
                delivery_batch=_THROUGHPUT_BATCH,
            )
            events = zipf_workload(
                BitBudgetedRandom(_SEED),
                n_keys=_KEYS,
                n_events=throughput_events,
                exponent=_EXPONENT,
            )
            with ClusterSimulation(
                config, telemetry=Telemetry.disabled()
            ) as simulation:
                result = simulation.run(events)
                metrics = simulation.metrics_snapshot()
            rows.append(
                {
                    "workers": workers,
                    "mode": "serial" if workers == 1 else "parallel",
                    "events": result.total_events,
                    "events_per_sec": round(result.events_per_sec, 1),
                    "rms_relative_error": result.rms_relative_error,
                    "max_relative_error": result.max_relative_error,
                    "checkpoints": result.checkpoints,
                    "state_bits": result.total_state_bits,
                    "metrics": metrics,
                }
            )
        overhead_pct, overhead_detail = _measure_telemetry_overhead(
            min(throughput_events, _THROUGHPUT_FULL_EVENTS // 4), tmp
        )
        serial_eps = rows[0]["events_per_sec"]
        for row in rows:
            row["speedup_vs_serial"] = round(
                row["events_per_sec"] / serial_eps, 3
            )
        # Process arm: per-node OS worker processes on a CPU-bound
        # (memory-store) configuration — the deployment where real
        # cores, not overlapped fsync stalls, are the only speedup
        # source.  Serial, thread-parallel, and process plans drive
        # the identical workload at each node count; the plans may
        # only move wall-clock numbers, never accuracy.
        process_events = min(throughput_events, _PROCESS_ARM_EVENTS_CAP)
        process_rows = []
        for n_nodes in _PROCESS_NODE_SWEEP:
            for arm, plan_fields in (
                ("serial", {"plan": "serial"}),
                (
                    "parallel",
                    {"plan": "parallel", "ingest_workers": n_nodes},
                ),
                ("process", {"plan": "process"}),
            ):
                config = ClusterConfig(
                    n_nodes=n_nodes,
                    template=default_template("simplified_ny"),
                    seed=_SEED,
                    buffer_limit=512,
                    checkpoint_every=max(process_events // 4, 1000),
                    delivery_batch=_THROUGHPUT_BATCH,
                    **plan_fields,
                )
                events = zipf_workload(
                    BitBudgetedRandom(_SEED),
                    n_keys=_KEYS,
                    n_events=process_events,
                    exponent=_EXPONENT,
                )
                with ClusterSimulation(
                    config, telemetry=Telemetry.disabled()
                ) as simulation:
                    result = simulation.run(events)
                    metrics = simulation.metrics_snapshot()
                process_rows.append(
                    {
                        "nodes": n_nodes,
                        "arm": arm,
                        "events": result.total_events,
                        "events_per_sec": round(
                            result.events_per_sec, 1
                        ),
                        "rms_relative_error": result.rms_relative_error,
                        "max_relative_error": result.max_relative_error,
                        "checkpoints": result.checkpoints,
                        "state_bits": result.total_state_bits,
                        "metrics": metrics,
                    }
                )
        by_arm = {
            (row["nodes"], row["arm"]): row for row in process_rows
        }
        for row in process_rows:
            base_serial = by_arm[(row["nodes"], "serial")]
            base_parallel = by_arm[(row["nodes"], "parallel")]
            row["speedup_vs_serial"] = round(
                row["events_per_sec"] / base_serial["events_per_sec"], 3
            )
            row["speedup_vs_parallel"] = round(
                row["events_per_sec"]
                / base_parallel["events_per_sec"],
                3,
            )
        # Bit-identity proof on exact templates: a crash and a live
        # migration mid-stream, serial vs 4 workers vs per-node worker
        # processes, same seed.  All three arms drive one stream
        # (capped with the process arm: the property is length-free,
        # the pipe IPC is not).
        proof_events = process_events
        fingerprints = []
        for plan, workers in (
            ("serial", 1),
            ("parallel", 4),
            ("process", 1),
        ):
            config = ClusterConfig(
                n_nodes=4,
                template=default_template("exact"),
                seed=_SEED,
                checkpoint_every=max(proof_events // 8, 1000),
                routing="ring",
                scale_events=(
                    ScaleEvent(
                        at_event=proof_events // 3, action="add"
                    ),
                ),
                failures=(
                    NodeFailure(
                        at_event=proof_events // 2, node_id=1
                    ),
                ),
                plan=plan,
                ingest_workers=workers,
                delivery_batch=_THROUGHPUT_BATCH,
            )
            events = zipf_workload(
                BitBudgetedRandom(_SEED),
                n_keys=_KEYS,
                n_events=proof_events,
                exponent=_EXPONENT,
            )
            simulation = ClusterSimulation(config)
            simulation.run(events)
            fingerprints.append(
                view_fingerprint(simulation.aggregator.global_view())
            )
        parallel_bit_identical = fingerprints[0] == fingerprints[1]
        process_bit_identical = fingerprints[0] == fingerprints[2]
        # Weighted (heavy-count) arm: the same cluster consuming a
        # pre-aggregated feed per-unit vs via the geometric skip-ahead
        # fast-forward.  The modes may only move wall-clock numbers on
        # approximate templates (statistically equivalent streams,
        # pinned by the hypothesis sweep); on exact templates they are
        # bit-identical, which the weighted proof below pins across all
        # three execution plans with a crash and a migration mid-run.
        full_run = throughput_events >= _THROUGHPUT_FULL_EVENTS
        skipahead_events = min(
            throughput_events,
            _SKIPAHEAD_EVENTS_CAP if full_run else _SKIPAHEAD_SMOKE_EVENTS,
        )
        skipahead_rows, skip_ahead_speedup = _run_skipahead_arms(
            skipahead_events
        )
        if full_run:
            # Full runs also measure the arm at smoke size: CI's
            # regression gate compares fresh smoke runs against this
            # committed reference, so it must be apples to apples.
            _, skip_ahead_speedup_smoke = _run_skipahead_arms(
                _SKIPAHEAD_SMOKE_EVENTS
            )
        else:
            skip_ahead_speedup_smoke = skip_ahead_speedup
        weighted_fingerprints = []
        for plan, workers, mode in (
            ("serial", 1, "skip_ahead"),
            ("parallel", 4, "skip_ahead"),
            ("process", 1, "skip_ahead"),
            ("serial", 1, "per_unit"),
        ):
            config = ClusterConfig(
                n_nodes=4,
                template=default_template("exact"),
                seed=_SEED,
                checkpoint_every=max(skipahead_events // 8, 1000),
                routing="ring",
                scale_events=(
                    ScaleEvent(
                        at_event=skipahead_events // 3, action="add"
                    ),
                ),
                failures=(
                    NodeFailure(
                        at_event=skipahead_events // 2, node_id=1
                    ),
                ),
                plan=plan,
                ingest_workers=workers,
                delivery_batch=_THROUGHPUT_BATCH,
                consume_mode=mode,
            )
            events = weighted_zipf_workload(
                BitBudgetedRandom(_SEED),
                n_keys=_KEYS,
                n_events=skipahead_events,
                exponent=_EXPONENT,
                mean_count=_SKIPAHEAD_MEAN_COUNT,
            )
            simulation = ClusterSimulation(config)
            simulation.run(events)
            weighted_fingerprints.append(
                view_fingerprint(simulation.aggregator.global_view())
            )
        weighted_bit_identical = all(
            fp == weighted_fingerprints[0]
            for fp in weighted_fingerprints[1:]
        )
    return {
        "benchmark": "cluster_throughput",
        "seed": _SEED,
        "workload": {
            "kind": "zipf",
            "events": throughput_events,
            "keys": _KEYS,
            "exponent": _EXPONENT,
        },
        "config": {
            "nodes": _THROUGHPUT_NODES,
            "wal_fsync_every": _THROUGHPUT_FSYNC,
            "delivery_batch": _THROUGHPUT_BATCH,
            "process_nodes": list(_PROCESS_NODE_SWEEP),
            "process_events": process_events,
            "skipahead_events": skipahead_events,
            "skipahead_mean_count": _SKIPAHEAD_MEAN_COUNT,
        },
        "cpus": os.cpu_count() or 1,
        "rows": rows,
        "process_rows": process_rows,
        "skipahead_rows": skipahead_rows,
        "skip_ahead_speedup": skip_ahead_speedup,
        "skip_ahead_speedup_smoke": skip_ahead_speedup_smoke,
        "parallel_bit_identical": parallel_bit_identical,
        "process_bit_identical": process_bit_identical,
        "weighted_bit_identical": weighted_bit_identical,
        "telemetry_overhead_pct": overhead_pct,
        "telemetry_overhead_detail": overhead_detail,
    }


def _append_trajectory(payload: dict) -> Path | None:
    """Append one committed trajectory row after a *full* throughput run.

    Smoke runs return ``None`` without touching the file — the committed
    history only ever holds full-run measurements.  The row records the
    skip-ahead arm (full and smoke-size speedups) plus the worker-sweep
    headline, so CI can gate fresh smoke runs against it.
    """
    if payload["workload"]["events"] < _THROUGHPUT_FULL_EVENTS:
        return None
    by_workers = {row["workers"]: row for row in payload["rows"]}
    per_unit, skip = payload["skipahead_rows"]
    row = {
        "date": time.strftime("%Y-%m-%d"),
        "cpus": payload["cpus"],
        "events": payload["config"]["skipahead_events"],
        "mean_count": payload["config"]["skipahead_mean_count"],
        "per_unit_events_per_sec": per_unit["events_per_sec"],
        "skip_ahead_events_per_sec": skip["events_per_sec"],
        "skip_ahead_speedup": payload["skip_ahead_speedup"],
        "skip_ahead_speedup_smoke": payload["skip_ahead_speedup_smoke"],
        "speedup_4_workers": by_workers[4]["speedup_vs_serial"],
    }
    if _TRAJECTORY_PATH.exists():
        doc = json.loads(_TRAJECTORY_PATH.read_text(encoding="utf-8"))
    else:
        doc = {
            "benchmark": "cluster_throughput_trajectory",
            "seed": _SEED,
            "workload": {
                "kind": "weighted_zipf",
                "keys": _KEYS,
                "exponent": _EXPONENT,
                "mean_count": _SKIPAHEAD_MEAN_COUNT,
            },
            "rows": [],
        }
    doc["rows"].append(row)
    _TRAJECTORY_PATH.parent.mkdir(parents=True, exist_ok=True)
    _TRAJECTORY_PATH.write_text(
        json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n",
        encoding="utf-8",
    )
    return _TRAJECTORY_PATH


def _event_timing_shape(iters: int) -> None:
    """One delivery batch's timing: the driver's route stretch (a clock
    pair and one fold, ``StreamDriver._pause``/``_resume``) plus the
    backend's three clock readings and two folds
    (``pipeline._apply_batch``) — mirrored line for line.  The real
    path pays this once per batch; the caller charges it once per timed
    event, an upper bound."""
    perf = time.perf_counter
    telemetry = Telemetry()
    for _ in range(iters):
        stretch = perf()
        telemetry.stage_timer().add("route", perf() - stretch, 1)
        started = perf()
        appended = perf()
        telemetry.stage_timer().add("deliver", appended - started, 1)
        telemetry.stage_timer().add("bank_consume", perf() - appended, 1)


def _make_observe_shape(telemetry: Telemetry):
    """The per-observation delta: a clock pair, one histogram
    observation, one stage-cell fold, one trace guard — mirrors the
    fsync accounting in ``FileWal._sync_handle``/``_record_fsync``
    (checkpoint observations share the shape)."""
    perf = time.perf_counter
    registry = telemetry.registry
    timer = telemetry.stage_timer()

    def shape(iters: int) -> None:
        for _ in range(iters):
            start = perf()
            seconds = perf() - start
            registry.observe("wal_fsync_seconds", seconds)
            timer.add("fsync", seconds)
            if telemetry.trace_active:
                telemetry.trace("wal_fsync", node=0)

    return shape


def _calibrate_shape(shape, iters: int = 20_000, batches: int = 9) -> float:
    """Median per-iteration cost of one instrumentation code shape.

    Each batch is a few milliseconds of the exact code the hot path
    runs — granular enough that a scheduler stall poisons a minority of
    batches, which the median rejects.  The surrounding ``for`` loop
    adds ~30 ns per iteration, biasing the estimate *high* (the real
    sites are straight-line code), so the calibration is conservative.
    """
    perf = time.perf_counter
    samples = []
    for _ in range(batches):
        start = perf()
        shape(iters)
        samples.append((perf() - start) / iters)
    samples.sort()
    return samples[len(samples) // 2]


def _measure_telemetry_overhead(
    n_events: int, tmp: str
) -> tuple[float, dict]:
    """Calibrated accounting estimate of the wall-clock telemetry tax.

    Earlier revisions measured this as the elapsed-time ratio of paired
    enabled/disabled runs.  On a shared single-core box that estimator
    is structurally broken: adjacent *identical* runs differ by ±10-15%
    wall clock (scheduler steal, page-cache state), so the noise floor
    of any two-run ratio exceeds the 5% acceptance bar itself and the
    gate flaps on machine weather, not on the instrumentation.

    The quantity under test is measurable directly instead.  The
    enabled-vs-disabled delta is, by the inertness contract, a fixed
    set of extra operations — per delivery batch the stream driver and
    its backend take five clock readings and fold three stage cells
    (charged here once per *event*, an upper bound); per fsync (and per
    checkpoint) the storage layer takes a clock pair and feeds one
    histogram observation, one stage cell, and a trace guard.  The
    deterministic counters run in *both* arms, so they are not part of
    the delta.  Both op counts are exact — read from the instrumented
    run's own accumulators — and the per-op costs are calibrated on
    the spot with short loops of the identical code shape
    (:func:`_calibrate_shape`).  The estimate is

        overhead = extra_s / (elapsed_s - extra_s)

    with every term measured on this machine during this run.  The
    residual wall noise sits only in the denominator, where ±10%
    perturbs a ~2% estimate by ~±0.2 points — versus ±10 points when
    it hits a two-run numerator.
    """
    config = ClusterConfig(
        n_nodes=_THROUGHPUT_NODES,
        template=default_template("simplified_ny"),
        seed=_SEED,
        buffer_limit=512,
        checkpoint_every=max(n_events // 8, 1000),
        storage="file",
        storage_dir=f"{tmp}/overhead-instrumented",
        wal_fsync_every=_THROUGHPUT_FSYNC,
    )
    events = zipf_workload(
        BitBudgetedRandom(_SEED),
        n_keys=_KEYS,
        n_events=n_events,
        exponent=_EXPONENT,
    )
    telemetry = Telemetry()
    with ClusterSimulation(config, telemetry=telemetry) as simulation:
        result = simulation.run(events)
    stages = telemetry.stage_snapshot()
    timed_events = int(stages.get("route", {}).get("count", 0))
    observations = sum(
        int(cell["count"])
        for cell in telemetry.registry.snapshot()["histograms"].values()
    )

    per_event_s = _calibrate_shape(_event_timing_shape)
    per_observe_s = _calibrate_shape(_make_observe_shape(Telemetry()))
    extra_s = timed_events * per_event_s + observations * per_observe_s
    base_s = max(result.elapsed_s - extra_s, 1e-9)
    detail = {
        "elapsed_s": round(result.elapsed_s, 4),
        "extra_s": round(extra_s, 4),
        "timed_events": timed_events,
        "observations": observations,
        "per_event_us": round(per_event_s * 1e6, 3),
        "per_observation_us": round(per_observe_s * 1e6, 3),
    }
    return round(100.0 * extra_s / base_s, 2), detail


def _render_throughput(payload: dict) -> str:
    table = TextTable(
        ["workers", "events/s", "speedup", "rms err", "ckpts"]
    )
    for row in payload["rows"]:
        table.add_row(
            f"{row['workers']} ({row['mode']})",
            f"{row['events_per_sec']:,.0f}",
            f"{row['speedup_vs_serial']:.2f}x",
            f"{100 * row['rms_relative_error']:.3f}%",
            str(row["checkpoints"]),
        )
    process_table = TextTable(
        ["nodes", "plan", "events/s", "vs serial", "vs parallel"]
    )
    for row in payload["process_rows"]:
        process_table.add_row(
            str(row["nodes"]),
            row["arm"],
            f"{row['events_per_sec']:,.0f}",
            f"{row['speedup_vs_serial']:.2f}x",
            f"{row['speedup_vs_parallel']:.2f}x",
        )
    skipahead_table = TextTable(
        ["consume mode", "increments/s", "speedup", "rms err"]
    )
    for row in payload["skipahead_rows"]:
        skipahead_table.add_row(
            row["arm"],
            f"{row['events_per_sec']:,.0f}",
            f"{row['speedup_vs_per_unit']:.2f}x",
            f"{100 * row['rms_relative_error']:.3f}%",
        )
    workload = payload["workload"]
    config = payload["config"]
    return "\n".join(
        [
            "Parallel ingest — serial loop vs worker-sharded delivery",
            f"zipf({workload['exponent']}) {workload['events']:,} events "
            f"over {workload['keys']:,} keys, seed {payload['seed']}; "
            f"{config['nodes']} nodes, file store, "
            f"fsync every {config['wal_fsync_every']} appends",
            "",
            table.render(),
            "",
            "Process plans — per-node OS workers on a CPU-bound "
            "(memory-store) config",
            f"{config['process_events']:,} events, "
            f"{payload['cpus']} CPU core(s) available",
            "",
            process_table.render(),
            "",
            "Plan-invariance check: every row reports bit-identical "
            "accuracy — workers only move wall-clock.",
            "serial vs 4-worker GlobalView (exact templates, crash + "
            "migration mid-stream): "
            + (
                "bit-identical"
                if payload["parallel_bit_identical"]
                else "MISMATCH"
            ),
            "serial vs process-plan GlobalView (same crash + "
            "migration stream): "
            + (
                "bit-identical"
                if payload["process_bit_identical"]
                else "MISMATCH"
            ),
            "",
            "Skip-ahead arm — weighted feed "
            f"(~{config['skipahead_mean_count']} increments/event, "
            f"{config['skipahead_events']:,} events), per-unit coin "
            "flips vs geometric fast-forward",
            "",
            skipahead_table.render(),
            "",
            "weighted exact-template GlobalView across serial / "
            "parallel / process plans and both consume modes: "
            + (
                "bit-identical"
                if payload["weighted_bit_identical"]
                else "MISMATCH"
            ),
            "telemetry overhead (calibrated op accounting): "
            f"{payload['telemetry_overhead_pct']:+.2f}% "
            "(acceptance bar: <= 5% on full runs)",
        ]
    )


def _check_throughput(payload: dict) -> None:
    """The throughput-scenario invariants (full or quick)."""
    rows = payload["rows"]
    assert [row["workers"] for row in rows] == list(_WORKER_SWEEP)
    serial = rows[0]
    assert serial["mode"] == "serial"
    for row in rows:
        assert row["events"] == payload["workload"]["events"]
        # The execution plan must never change what the cluster
        # computes: bit-identical accuracy and state at every width.
        assert row["rms_relative_error"] == serial["rms_relative_error"]
        assert row["max_relative_error"] == serial["max_relative_error"]
        assert row["checkpoints"] == serial["checkpoints"]
        assert row["state_bits"] == serial["state_bits"]
        assert row["events_per_sec"] > 0
    process_rows = payload["process_rows"]
    assert [(row["nodes"], row["arm"]) for row in process_rows] == [
        (nodes, arm)
        for nodes in _PROCESS_NODE_SWEEP
        for arm in ("serial", "parallel", "process")
    ]
    by_arm = {(row["nodes"], row["arm"]): row for row in process_rows}
    for row in process_rows:
        base = by_arm[(row["nodes"], "serial")]
        assert row["events"] == payload["config"]["process_events"]
        # Same plan-invariance bar as the worker sweep: serial,
        # thread-parallel, and process plans compute the same thing.
        assert row["rms_relative_error"] == base["rms_relative_error"]
        assert row["max_relative_error"] == base["max_relative_error"]
        assert row["checkpoints"] == base["checkpoints"]
        assert row["state_bits"] == base["state_bits"]
        assert row["events_per_sec"] > 0
    assert payload["parallel_bit_identical"] is True
    assert payload["process_bit_identical"] is True
    skip_rows = payload["skipahead_rows"]
    assert [row["arm"] for row in skip_rows] == ["per_unit", "skip_ahead"]
    per_unit_row, skip_row = skip_rows
    # Identical weighted streams: both arms saw the same increments.
    assert per_unit_row["increments"] == skip_row["increments"]
    assert per_unit_row["increments"] > per_unit_row["events"]
    for row in skip_rows:
        assert row["events"] == payload["config"]["skipahead_events"]
        assert row["events_per_sec"] > 0
    assert payload["skip_ahead_speedup"] == skip_row["speedup_vs_per_unit"]
    # The consume mode may never change *what* an exact cluster
    # computes, any plan, crash + migration in the mix.
    assert payload["weighted_bit_identical"] is True
    if payload["workload"]["events"] >= _THROUGHPUT_FULL_EVENTS:
        # The tentpole acceptance bar: the geometric fast-forward must
        # beat per-unit coin flips >= 5x on the heavy-count workload.
        assert payload["skip_ahead_speedup"] >= 5.0, (
            f"skip-ahead speedup {payload['skip_ahead_speedup']}x "
            "below the 5x acceptance bar"
        )
    if (
        payload["workload"]["events"] >= _THROUGHPUT_FULL_EVENTS
        and payload["cpus"] >= 2
    ):
        # The acceptance bar for the process arm (full runs on a
        # multi-core box only — with one core, worker processes just
        # time-slice and the comparison measures nothing): per-node OS
        # workers must beat thread-parallel delivery on the CPU-bound
        # template, where the GIL caps what threads can overlap.
        speedup = by_arm[(4, "process")]["speedup_vs_parallel"]
        assert speedup > 1.0, (
            f"4-node process-plan speedup {speedup}x vs parallel "
            "below the 1x acceptance bar"
        )
    # The telemetry layer must be cheap on the delivery path.  Smoke
    # runs only pin that the measurement exists and is finite (20k-event
    # timings are scheduler noise); full runs enforce the 5% bar.
    overhead = payload["telemetry_overhead_pct"]
    assert isinstance(overhead, float) and math.isfinite(overhead)
    if payload["workload"]["events"] >= _THROUGHPUT_FULL_EVENTS:
        assert overhead <= 5.0, (
            f"telemetry overhead {overhead}% above the 5% "
            "acceptance bar"
        )
    if payload["workload"]["events"] >= _THROUGHPUT_FULL_EVENTS:
        # The acceptance bar (full runs only — smoke timings are noise):
        # worker-sharded delivery must overlap enough commit stall to
        # reach 1.5x serial at 4 workers.
        by_workers = {row["workers"]: row for row in rows}
        assert by_workers[4]["speedup_vs_serial"] >= 1.5, (
            f"4-worker speedup {by_workers[4]['speedup_vs_serial']}x "
            "below the 1.5x acceptance bar"
        )


# ----------------------------------------------------------------------
# gossip scenario: decentralized reads converge to the central answer
# ----------------------------------------------------------------------
_GOSSIP_SWEEP = (2, 4, 8)
_GOSSIP_FANOUT = 1


def _run_gossip(n_events: int) -> dict:
    """Gossip aggregation at 2/4/8 nodes on ``exact`` templates.

    Each run schedules a push-pull round every eighth of the stream and
    crashes the last node mid-run (so the digest-rebuild path is part
    of what is measured).  Per node count the payload records the
    rounds the end-of-stream anti-entropy pass needed (the O(log n)
    claim made measurable), the worst pre-convergence staleness in
    events (the "stale but bounded" guarantee), and whether every
    node's decentralized read equals the central merge tree's answer
    bit for bit — the gossip counterpart of Remark 2.4's exactness.
    """
    gossip_every = max(n_events // 8, 1)
    rows = []
    for n_nodes in _GOSSIP_SWEEP:
        config = ClusterConfig(
            n_nodes=n_nodes,
            template=default_template("exact"),
            seed=_SEED,
            buffer_limit=512,
            checkpoint_every=max(n_events // (4 * n_nodes), 1000),
            aggregation="gossip",
            gossip_fanout=_GOSSIP_FANOUT,
            gossip_every=gossip_every,
            failures=(
                NodeFailure(at_event=n_events // 2, node_id=n_nodes - 1),
            ),
        )
        events = zipf_workload(
            BitBudgetedRandom(_SEED),
            n_keys=_KEYS,
            n_events=n_events,
            exponent=_EXPONENT,
        )
        with ClusterSimulation(config) as simulation:
            result = simulation.run(events)
            central = view_fingerprint(
                simulation.aggregator.global_view()
            )
            equivalent = all(
                view_fingerprint(simulation.node_view(node.node_id))
                == central
                for node in simulation.nodes
            )
            metrics = simulation.metrics_snapshot()
        rows.append(
            {
                "nodes": n_nodes,
                "metrics": metrics,
                "events": result.total_events,
                "events_per_sec": round(result.events_per_sec, 1),
                "gossip_rounds": result.gossip_rounds,
                "rounds_to_convergence": (
                    result.gossip_convergence_rounds
                ),
                "max_staleness_events": result.gossip_max_staleness,
                "central_read_equivalent": equivalent,
                "max_relative_error": result.max_relative_error,
                "recoveries": result.recoveries,
            }
        )
    return {
        "benchmark": "cluster_gossip",
        "seed": _SEED,
        "workload": {
            "kind": "zipf",
            "events": n_events,
            "keys": _KEYS,
            "exponent": _EXPONENT,
        },
        "config": {
            "fanout": _GOSSIP_FANOUT,
            "gossip_every": gossip_every,
            "template": "exact",
        },
        "rows": rows,
    }


def _render_gossip(payload: dict) -> str:
    table = TextTable(
        [
            "nodes",
            "events/s",
            "rounds (stream)",
            "rounds to converge",
            "max staleness",
            "local == central",
        ]
    )
    for row in payload["rows"]:
        table.add_row(
            str(row["nodes"]),
            f"{row['events_per_sec']:,.0f}",
            str(row["gossip_rounds"]),
            str(row["rounds_to_convergence"]),
            f"{row['max_staleness_events']:,}",
            "yes" if row["central_read_equivalent"] else "NO",
        )
    workload = payload["workload"]
    config = payload["config"]
    return "\n".join(
        [
            "Gossip aggregation — decentralized reads vs the central "
            "merge tree",
            f"zipf({workload['exponent']}) {workload['events']:,} events "
            f"over {workload['keys']:,} keys, seed {payload['seed']}; "
            f"fanout {config['fanout']}, round every "
            f"{config['gossip_every']:,} events, exact templates",
            "",
            table.render(),
            "",
            "Exactness check: after convergence every node's gossiped "
            "view is bit-identical to the central answer — digests "
            "merge by version, never by sum, so epidemic exchange "
            "costs nothing in accuracy (Remark 2.4).",
        ]
    )


def _check_gossip(payload: dict) -> None:
    """The gossip-scenario invariants (full or quick)."""
    rows = payload["rows"]
    assert [row["nodes"] for row in rows] == list(_GOSSIP_SWEEP)
    for row in rows:
        assert row["events"] == payload["workload"]["events"]
        # Every node's decentralized read must equal the central
        # merge-tree answer bit for bit on exact templates.
        assert row["central_read_equivalent"] is True
        assert row["max_relative_error"] == 0.0
        # Convergence is O(log n) rounds: generous constant, but the
        # bound must scale logarithmically, not linearly.
        bound = 3 * (math.ceil(math.log2(row["nodes"])) + 1)
        assert 1 <= row["rounds_to_convergence"] <= bound, (
            f"{row['nodes']} nodes took "
            f"{row['rounds_to_convergence']} rounds (bound {bound})"
        )
        assert row["max_staleness_events"] >= 0
        assert row["recoveries"] >= 1  # the crash is part of the run


# ----------------------------------------------------------------------
# membership scenario: self-healed kills match driver-healed runs
# ----------------------------------------------------------------------
_MEMBERSHIP_SWEEP = (2, 4, 8)
_MEMBERSHIP_SUSPECT_AFTER = 2


def _run_membership(n_events: int) -> dict:
    """Self-healing membership at 2/4/8 nodes on ``exact`` templates.

    Each sweep arm kills the last node at mid-stream with
    ``NodeFailure(heal=False)`` — the driver walks away and the
    membership layer must notice (digest staleness), agree (quorum
    vote), and heal (checkpoint + WAL replay) on its own.  A paired
    reference run of the identical seed and workload uses the classic
    driver-healed crash instead; its global view is the ground the
    self-healed run is held to, bit for bit.  Detection latency in
    gossip rounds is recorded per arm and must stay within
    ``suspect_after`` plus an O(log n) dissemination allowance.
    """
    gossip_every = max(n_events // 8, 1)
    rows = []
    for n_nodes in _MEMBERSHIP_SWEEP:
        shared = dict(
            n_nodes=n_nodes,
            template=default_template("exact"),
            seed=_SEED,
            buffer_limit=512,
            checkpoint_every=max(n_events // (4 * n_nodes), 1000),
            aggregation="gossip",
            gossip_fanout=_GOSSIP_FANOUT,
            gossip_every=gossip_every,
        )
        kill_at = n_events // 2
        fingerprints = {}
        for arm in ("self-healed", "driver-healed"):
            config = ClusterConfig(
                membership=(arm == "self-healed"),
                suspect_after=(
                    _MEMBERSHIP_SUSPECT_AFTER
                    if arm == "self-healed"
                    else 2
                ),
                failures=(
                    NodeFailure(
                        at_event=kill_at,
                        node_id=n_nodes - 1,
                        heal=(arm == "driver-healed"),
                    ),
                ),
                **shared,
            )
            events = zipf_workload(
                BitBudgetedRandom(_SEED),
                n_keys=_KEYS,
                n_events=n_events,
                exponent=_EXPONENT,
            )
            with ClusterSimulation(config) as simulation:
                result = simulation.run(events)
                fingerprints[arm] = view_fingerprint(
                    simulation.aggregator.global_view()
                )
                if arm == "self-healed":
                    metrics = simulation.metrics_snapshot()
                    healed = result
        rows.append(
            {
                "nodes": n_nodes,
                "events": healed.total_events,
                "events_per_sec": round(healed.events_per_sec, 1),
                "kills": healed.membership_kills,
                "suspicions": healed.membership_suspicions,
                "confirmations": healed.membership_confirmations,
                "heals": healed.membership_heals,
                "detection_rounds": healed.membership_detection_rounds,
                "healed_equivalent": (
                    fingerprints["self-healed"]
                    == fingerprints["driver-healed"]
                ),
                "max_relative_error": healed.max_relative_error,
                "recoveries": healed.recoveries,
                "metrics": metrics,
            }
        )
    return {
        "benchmark": "cluster_membership",
        "seed": _SEED,
        "workload": {
            "kind": "zipf",
            "events": n_events,
            "keys": _KEYS,
            "exponent": _EXPONENT,
        },
        "config": {
            "fanout": _GOSSIP_FANOUT,
            "gossip_every": gossip_every,
            "suspect_after": _MEMBERSHIP_SUSPECT_AFTER,
            "membership_heal": "auto",
            "template": "exact",
        },
        "rows": rows,
    }


def _render_membership(payload: dict) -> str:
    table = TextTable(
        [
            "nodes",
            "events/s",
            "suspicions",
            "confirms",
            "heals",
            "detect rounds",
            "healed == driver",
        ]
    )
    for row in payload["rows"]:
        table.add_row(
            str(row["nodes"]),
            f"{row['events_per_sec']:,.0f}",
            str(row["suspicions"]),
            str(row["confirmations"]),
            str(row["heals"]),
            str(row["detection_rounds"]),
            "yes" if row["healed_equivalent"] else "NO",
        )
    workload = payload["workload"]
    config = payload["config"]
    return "\n".join(
        [
            "Self-healing membership — gossip-detected kills vs "
            "driver-healed crashes",
            f"zipf({workload['exponent']}) {workload['events']:,} events "
            f"over {workload['keys']:,} keys, seed {payload['seed']}; "
            f"suspect after {config['suspect_after']} stale rounds, "
            f"round every {config['gossip_every']:,} events, "
            "exact templates",
            "",
            table.render(),
            "",
            "Losslessness check: a kill the driver never heals "
            "converges to the same exact global view as the classic "
            "driver-healed crash — detection, quorum, and recovery "
            "change when healing happens, never what the cluster "
            "computes.",
        ]
    )


def _check_membership(payload: dict) -> None:
    """The membership-scenario invariants (full or quick)."""
    rows = payload["rows"]
    assert [row["nodes"] for row in rows] == list(_MEMBERSHIP_SWEEP)
    suspect_after = payload["config"]["suspect_after"]
    for row in rows:
        assert row["events"] == payload["workload"]["events"]
        # The one kill was detected, quorum-confirmed, and healed by
        # the cluster itself (the heal shows up as a recovery too).
        assert row["kills"] == 1
        assert row["suspicions"] >= 1
        assert row["confirmations"] >= 1
        assert row["heals"] == 1
        assert row["recoveries"] >= 1
        # The self-healed run must be bit-identical to the
        # driver-healed reference on exact templates.
        assert row["healed_equivalent"] is True
        assert row["max_relative_error"] == 0.0
        # Detection latency: the suspicion threshold plus an O(log n)
        # allowance for vote dissemination across the quorum.
        bound = suspect_after + 2 + 3 * (
            math.ceil(math.log2(row["nodes"])) + 1
        )
        assert 1 <= row["detection_rounds"] <= bound, (
            f"{row['nodes']} nodes took "
            f"{row['detection_rounds']} rounds to heal (bound {bound})"
        )


# ----------------------------------------------------------------------
# serving scenario: queries/sec over replica digest reads, inertly
# ----------------------------------------------------------------------
_SERVING_SWEEP = (1, 2, 4)
#: Timed replica reads per row — enough to exercise the read cache,
#: cheap enough to keep even the quick path in seconds.
_SERVING_QUERIES = 2_000
#: Serving rows measure the read path, not ingest; the full sweep runs
#: each replica count twice (served + unserved arms), so cap the stream
#: length — the properties being pinned are length-free.
_SERVING_FULL_EVENTS = 250_000


def _http_get(url: str, timeout: float = 10.0) -> tuple[int, bytes]:
    with urllib.request.urlopen(url, timeout=timeout) as reply:
        return reply.status, reply.read()


def _serve_http_round(reader: ClusterReader, hot_key: str) -> int:
    """Exercise every HTTP endpoint against a live server once.

    Returns the number of 200 responses; JSON endpoints must parse as
    strict JSON.  This is what makes the served arm *served* — the
    inertness fingerprint is taken after these requests have run.
    """
    ok = 0
    server = serve_http(reader)
    try:
        json_endpoints = (
            "/healthz",
            f"/v1/keys/{hot_key}",
            "/v1/topk?k=5",
            "/v1/view",
            "/v1/view?consistency=consistent",
        )
        for endpoint in json_endpoints:
            status, body = _http_get(server.url + endpoint)
            json.loads(body.decode("utf-8"))
            ok += status == 200
        status, body = _http_get(
            server.url + "/v1/stream?limit=1&poll_ms=1"
        )
        ok += status == 200 and b"event: count" in body
        status, body = _http_get(server.url + "/metrics")
        ok += status == 200 and b"http_requests_total" in body
    finally:
        server.close()
    return ok


def _run_serving(n_events: int) -> dict:
    """The serving layer at 1/2/4 replicas on ``exact`` templates.

    Each replica count runs the identical gossip-aggregated workload
    twice: once untouched, once served after the stream ends — a
    :class:`~repro.cluster.query.ClusterReader` answering a timed burst
    of replica-consistency reads (queries/sec and cache hit rate), a
    per-replica bit-identity check of every digest read against
    ``global_view()``, and one full HTTP/SSE round through
    :func:`~repro.cluster.httpd.serve_http`.  Both arms must end with
    identical view fingerprints: serving reads never change what the
    cluster computes.  Every staleness stamp's reported bound must stay
    within the configured ``gossip_every`` window, and a converged
    replica must report zero lag — the honesty half of the "stale but
    bounded" guarantee.
    """
    serving_events = min(n_events, _SERVING_FULL_EVENTS)
    gossip_every = max(serving_events // 8, 1)
    rows = []
    for n_nodes in _SERVING_SWEEP:
        config = ClusterConfig(
            n_nodes=n_nodes,
            template=default_template("exact"),
            seed=_SEED,
            buffer_limit=512,
            checkpoint_every=max(serving_events // (4 * n_nodes), 1000),
            aggregation="gossip",
            gossip_fanout=_GOSSIP_FANOUT,
            gossip_every=gossip_every,
        )
        fingerprints = {}
        for arm in ("unserved", "served"):
            events = zipf_workload(
                BitBudgetedRandom(_SEED),
                n_keys=_KEYS,
                n_events=serving_events,
                exponent=_EXPONENT,
            )
            with ClusterSimulation(config) as simulation:
                simulation.run(events)
                if arm == "served":
                    reader = ClusterReader.from_simulation(simulation)
                    central = view_fingerprint(
                        simulation.aggregator.global_view()
                    )
                    replica_reads_identical = all(
                        reader.view(
                            consistency="replica", replica=node_id
                        ).fingerprint()
                        == central
                        for node_id in reader.replicas
                    )
                    staleness = reader.staleness(consistency="replica")
                    hot_keys = [
                        key
                        for key, _ in reader.raw_view(
                            consistency="replica"
                        ).top_keys(32)
                    ]
                    started = time.perf_counter()
                    for index in range(_SERVING_QUERIES):
                        reader.get(
                            hot_keys[index % len(hot_keys)],
                            consistency="replica",
                        )
                    elapsed = max(
                        time.perf_counter() - started, 1e-9
                    )
                    # Snapshot both counters before the HTTP round
                    # adds its own lookups to the same reader.
                    hits = reader.cache_hits
                    lookups = hits + reader.cache_misses
                    http_ok = _serve_http_round(reader, hot_keys[0])
                    metrics = simulation.metrics_snapshot()
                fingerprints[arm] = view_fingerprint(
                    simulation.aggregator.global_view()
                )
        rows.append(
            {
                "replicas": n_nodes,
                "events": serving_events,
                "queries": _SERVING_QUERIES,
                "queries_per_sec": round(
                    _SERVING_QUERIES / elapsed, 1
                ),
                "cache_hit_rate": round(hits / max(lookups, 1), 4),
                "staleness_lag_events": staleness.lag_events,
                "staleness_bound_events": staleness.bound_events,
                "replica_reads_bit_identical": replica_reads_identical,
                "served_equals_unserved": (
                    fingerprints["served"] == fingerprints["unserved"]
                ),
                "http_ok": http_ok,
                "metrics": metrics,
            }
        )
    return {
        "benchmark": "cluster_serving",
        "seed": _SEED,
        "workload": {
            "kind": "zipf",
            "events": serving_events,
            "keys": _KEYS,
            "exponent": _EXPONENT,
        },
        "config": {
            "fanout": _GOSSIP_FANOUT,
            "gossip_every": gossip_every,
            "template": "exact",
            "queries": _SERVING_QUERIES,
        },
        "rows": rows,
    }


def _render_serving(payload: dict) -> str:
    table = TextTable(
        [
            "replicas",
            "queries/s",
            "cache hit",
            "lag",
            "bound",
            "replica == central",
            "served == unserved",
        ]
    )
    for row in payload["rows"]:
        table.add_row(
            str(row["replicas"]),
            f"{row['queries_per_sec']:,.0f}",
            f"{100 * row['cache_hit_rate']:.1f}%",
            f"{row['staleness_lag_events']:,}",
            f"{row['staleness_bound_events']:,}",
            "yes" if row["replica_reads_bit_identical"] else "NO",
            "yes" if row["served_equals_unserved"] else "NO",
        )
    workload = payload["workload"]
    config = payload["config"]
    return "\n".join(
        [
            "Serving — HTTP/SSE query service over replica digest reads",
            f"zipf({workload['exponent']}) {workload['events']:,} events "
            f"over {workload['keys']:,} keys, seed {payload['seed']}; "
            f"{config['queries']:,} replica reads per row, round every "
            f"{config['gossip_every']:,} events, exact templates",
            "",
            table.render(),
            "",
            "Inertness check: a run that was served — every endpoint, "
            "SSE included — fingerprints identically to an unserved "
            "run of the same seed, and every converged replica read is "
            "bit-identical to global_view().",
        ]
    )


def _check_serving(payload: dict) -> None:
    """The serving-scenario invariants (full or quick)."""
    rows = payload["rows"]
    assert [row["replicas"] for row in rows] == list(_SERVING_SWEEP)
    gossip_every = payload["config"]["gossip_every"]
    for row in rows:
        assert row["events"] == payload["workload"]["events"]
        # Serving reads must never change what the cluster computes.
        assert row["served_equals_unserved"] is True
        # Every replica's digest read equals the central fold bit for
        # bit once the end-of-stream anti-entropy pass has converged.
        assert row["replica_reads_bit_identical"] is True
        # The reported staleness bound is the configured cadence, and a
        # converged replica owes nothing.
        assert row["staleness_bound_events"] <= gossip_every
        assert row["staleness_lag_events"] == 0
        assert row["queries_per_sec"] > 0
        # A burst of reads against a quiescent cluster folds once.
        assert row["cache_hit_rate"] > 0.5
        # healthz, key, topk, two views, SSE, metrics — all served.
        assert row["http_ok"] == 7


# ----------------------------------------------------------------------
# pytest-benchmark entry points
# ----------------------------------------------------------------------
def test_cluster_scaling(benchmark):
    """Full node-count sweep; writes BENCH_cluster.json."""
    payload = benchmark.pedantic(
        lambda: _run_sweep(_FULL_EVENTS), rounds=1, iterations=1
    )
    _check(payload)
    write_json_result("cluster", payload)
    write_result("BENCH_cluster", _render(payload))


def test_cluster_recovery_determinism(benchmark):
    """Crash-heavy run is bit-deterministic across replays."""

    def run_once():
        config = ClusterConfig(
            n_nodes=4,
            template=default_template("simplified_ny"),
            seed=_SEED,
            checkpoint_every=5000,
            failures=(
                NodeFailure(10_000, 0),
                NodeFailure(25_000, 2),
                NodeFailure(40_000, 0),
            ),
        )
        events = zipf_workload(
            BitBudgetedRandom(_SEED), n_keys=500, n_events=50_000
        )
        return ClusterSimulation(config).run(events)

    first = benchmark.pedantic(run_once, rounds=1, iterations=1)
    replay = run_once()
    assert first.node_stats == replay.node_stats
    assert first.top == replay.top
    assert first.rms_relative_error == replay.rms_relative_error


def test_cluster_elastic(benchmark):
    """Elastic 2→4→3 vs static; writes BENCH_cluster_elastic.json."""
    payload = benchmark.pedantic(
        lambda: _run_elastic(_FULL_EVENTS), rounds=1, iterations=1
    )
    _check_elastic(payload)
    write_json_result("cluster_elastic", payload)
    write_result("BENCH_cluster_elastic", _render_elastic(payload))


def test_cluster_durability(benchmark):
    """Memory vs file stores; writes BENCH_cluster_durability.json."""
    payload = benchmark.pedantic(
        lambda: _run_durability(_FULL_EVENTS), rounds=1, iterations=1
    )
    _check_durability(payload)
    write_json_result("cluster_durability", payload)
    write_result("BENCH_cluster_durability", _render_durability(payload))


def test_cluster_throughput(benchmark):
    """Serial vs parallel ingest; writes BENCH_cluster_throughput.json."""
    payload = benchmark.pedantic(
        lambda: _run_throughput(_FULL_EVENTS), rounds=1, iterations=1
    )
    _check_throughput(payload)
    write_json_result("cluster_throughput", payload)
    write_result("BENCH_cluster_throughput", _render_throughput(payload))
    _append_trajectory(payload)


def test_cluster_gossip(benchmark):
    """Gossip aggregation sweep; writes BENCH_cluster_gossip.json."""
    payload = benchmark.pedantic(
        lambda: _run_gossip(_FULL_EVENTS), rounds=1, iterations=1
    )
    _check_gossip(payload)
    write_json_result("cluster_gossip", payload)
    write_result("BENCH_cluster_gossip", _render_gossip(payload))


def test_cluster_membership(benchmark):
    """Self-healing sweep; writes BENCH_cluster_membership.json."""
    payload = benchmark.pedantic(
        lambda: _run_membership(_FULL_EVENTS), rounds=1, iterations=1
    )
    _check_membership(payload)
    write_json_result("cluster_membership", payload)
    write_result(
        "BENCH_cluster_membership", _render_membership(payload)
    )


def test_cluster_serving(benchmark):
    """Serving-layer sweep; writes BENCH_cluster_serving.json."""
    payload = benchmark.pedantic(
        lambda: _run_serving(_FULL_EVENTS), rounds=1, iterations=1
    )
    _check_serving(payload)
    write_json_result("cluster_serving", payload)
    write_result("BENCH_cluster_serving", _render_serving(payload))


# ----------------------------------------------------------------------
# script mode (the tier-1 smoke path)
# ----------------------------------------------------------------------
class _Scenario(NamedTuple):
    """One registered scenario: how to run, validate, and persist it."""

    run: Callable[[int], dict]
    check: Callable[[dict], None]
    render: Callable[[dict], str]
    artifact: str  # BENCH_<artifact>.json / .txt
    #: Optional step after a checked run (e.g. append the committed
    #: trajectory row); returns a written path or None.
    post: Callable[[dict], "Path | None"] | None = None


#: The scenario registry — ``--scenario`` choices come from here, so an
#: unknown name is a clean argparse error listing the valid scenarios
#: instead of a traceback, and adding a scenario is one entry.
_SCENARIOS: dict[str, _Scenario] = {
    "scaling": _Scenario(_run_sweep, _check, _render, "cluster"),
    "elastic": _Scenario(
        _run_elastic, _check_elastic, _render_elastic, "cluster_elastic"
    ),
    "durability": _Scenario(
        _run_durability,
        _check_durability,
        _render_durability,
        "cluster_durability",
    ),
    "throughput": _Scenario(
        _run_throughput,
        _check_throughput,
        _render_throughput,
        "cluster_throughput",
        post=_append_trajectory,
    ),
    "gossip": _Scenario(
        _run_gossip, _check_gossip, _render_gossip, "cluster_gossip"
    ),
    "membership": _Scenario(
        _run_membership,
        _check_membership,
        _render_membership,
        "cluster_membership",
    ),
    "serving": _Scenario(
        _run_serving,
        _check_serving,
        _render_serving,
        "cluster_serving",
    ),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=(
            "Cluster benchmark scenarios (scaling, elasticity, "
            "durability, parallel-ingest throughput, gossip "
            "aggregation, self-healing membership, serving)"
        )
    )
    parser.add_argument(
        "-q",
        "--quick",
        action="store_true",
        help="smoke path: reduced workload, same schema and checks",
    )
    parser.add_argument(
        "--scenario",
        choices=sorted(_SCENARIOS),
        default="scaling",
        help="which scenario to run (default: scaling)",
    )
    args = parser.parse_args(argv)
    scenario = _SCENARIOS[args.scenario]
    n_events = _QUICK_EVENTS if args.quick else _FULL_EVENTS
    payload = scenario.run(n_events)
    scenario.check(payload)
    path = write_json_result(scenario.artifact, payload)
    write_result(f"BENCH_{scenario.artifact}", scenario.render(payload))
    print(scenario.render(payload))
    print(f"\nwrote {path}")
    if scenario.post is not None:
        extra = scenario.post(payload)
        if extra is not None:
            print(f"appended trajectory row to {extra}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
