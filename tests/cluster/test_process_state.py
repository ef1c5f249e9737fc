"""A process-plan run starts its workers from the simulation's state.

Every ``run()`` spawns a fresh worker fleet.  Each worker must begin as
an exact copy of its coordinator node — bank, buffer and lifetime
stats — or the end-of-run pull would overwrite the mirrors with workers
that never saw what an earlier run, or a recovery from disk, put
there.  On ``exact`` templates the answer must be the serial one.
"""

from __future__ import annotations

from repro.cluster import (
    ClusterConfig,
    ClusterSimulation,
    default_template,
    recover_cluster,
    view_fingerprint,
)
from repro.rng.bitstream import BitBudgetedRandom
from repro.stream.workload import zipf_workload

_SEED = 3


def _events():
    return list(zipf_workload(BitBudgetedRandom(_SEED), 100, 4000))


def _config(plan: str, **extra) -> ClusterConfig:
    return ClusterConfig(
        n_nodes=2,
        template=default_template("exact"),
        seed=_SEED,
        checkpoint_every=900,
        plan=plan,
        **extra,
    )


def _state(simulation: ClusterSimulation) -> tuple:
    return (
        view_fingerprint(simulation.aggregator.global_view()),
        [node.lifetime_stats() for node in simulation.nodes],
    )


def test_second_run_keeps_the_first_runs_counts():
    events = _events()
    states = {}
    for plan in ("serial", "process"):
        with ClusterSimulation(_config(plan)) as simulation:
            simulation.run(events[:2000])
            simulation.run(events[2000:])
            states[plan] = _state(simulation)
    assert sum(
        stats["events_ingested"] for stats in states["process"][1]
    ) == sum(event.count for event in events)
    assert states["process"] == states["serial"]


def test_run_after_recovery_keeps_the_recovered_counts(tmp_path):
    events = _events()
    states = {}
    for plan in ("serial", "process"):
        directory = tmp_path / plan
        config = _config(plan, storage="file", storage_dir=str(directory))
        with ClusterSimulation(config) as simulation:
            simulation.run(events[:2000])
        with recover_cluster(str(directory)) as recovered:
            recovered.run(events[2000:])
            states[plan] = _state(recovered)
    assert states["process"][0] == states["serial"][0]
