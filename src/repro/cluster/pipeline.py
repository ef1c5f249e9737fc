"""Execution plans: one stream driver over three delivery backends.

Every plan runs the same event loop, :class:`StreamDriver`.  The driver
owns everything that decides *what* the cluster computes:

* the barriers scheduled at a stream position, in one fixed order —
  retention boundary, gossip round, scale events, crashes — run before
  the event at that position, against drained nodes;
* routing, on the coordinator thread in stream order (hot-key
  round-robin cursors and topology epochs are sequential state);
* the per-event bookkeeping: stream position, checkpoint budget,
  dead-node deferral, ``event_delivered``/``event_deferred`` traces;
* the per-node checkpoint and WAL segment-fence decision
  (:meth:`~repro.cluster.simulation.ClusterSimulation.fence_due`);
* stage timing, a few clock reads per delivery batch.

Routed events accumulate per node into batches of ``delivery_batch``
events.  A :class:`DeliveryBackend` decides only *where* a batch is
applied: ``send(node_id, batch)`` hands one over, ``drain(node_ids)``
returns once everything sent to those nodes has landed, and
``barrier()`` brackets the scheduled cluster operations.  Three plans
ship, selected by name through ``PLAN_REGISTRY``
(``ClusterConfig.plan``; the default ``"auto"`` keeps the historical
worker-count rule):

* :class:`SerialPlan` (``"serial"``) — :class:`DeliveryBackend` itself
  applies each batch inline: WAL append, then buffer submit.
* :class:`ParallelPlan` (``"parallel"``) — :class:`ThreadBackend`
  applies each batch on a ``ThreadPoolExecutor`` worker, the WAL
  append included, one thread per node at a time.
* :class:`ProcessPlan` (``"process"``) — :class:`FleetBackend` ships
  each batch to the node's OS worker process (a :class:`WorkerFleet`
  of ``python -m repro.cluster.worker`` subprocesses fed over the
  checksummed frame protocol of :mod:`repro.cluster.transport`), while
  the coordinator keeps all durable state.  Its ``drain`` pulls each
  worker's state into the coordinator's mirror of that node, so a
  checkpoint captures the mirror on the same code path as every other
  plan.

:meth:`~repro.cluster.simulation.ClusterSimulation.deliver_event` is
one :meth:`StreamDriver.step` with inline delivery and a batch of one.

Why every plan computes the same thing
--------------------------------------
Three facts carry the proof:

1. **Per-node order is preserved.**  A node's batches are applied in
   the order they were sent (the thread backend chains each batch's
   task on the node's previous one), so every node sees exactly its
   serial sub-stream, in arrival order.  Nodes share no mutable state —
   a node's bank, buffer, and WAL segments are touched only by the one
   thread currently confined to it.
2. **Control decisions are pure functions of the routed stream.**
   Checkpoint positions (the periodic budget and the WAL segment
   fence) depend only on per-node delivered counts, which the driver
   tracks as it routes; it fences at the same stream positions
   whatever the backend, and drains the node first.
3. **Barriers drain.**  Retention boundaries, gossip rounds, scale
   events, crashes, and the end of the stream run only after every
   routed event is sent and (except for the process plan's crashes,
   which recover from the WAL) applied, so they observe exactly the
   state an unbatched loop would at that position, and recovery
   semantics (checkpoint + log replay) are untouched.

Merges being distribution-exact (Remark 2.4) is what makes this worth
having: sharding the stream over workers costs nothing in accuracy, so
a parallel run must reproduce the serial run's ``GlobalView`` bit for
bit on ``exact`` templates and identically at the same seed on every
template — ``tests/cluster/test_pipeline.py`` pins both.

Where the speedup comes from
----------------------------
Pure-Python counter updates serialize on the GIL, so thread workers
pay off where delivery *blocks*: durable ingest.  With a file-backed
store and group-commit fsync (``wal_fsync_every``), each node's worker
spends most of its time in ``os.fsync`` — which releases the GIL — so
N workers overlap N nodes' commit stalls instead of paying them
end-to-end on one thread (the ``ingest-weighted-durable`` perfbench
workload measures exactly this).  Worker processes run counter
updates on separate interpreters, so CPU-bound templates scale with
cores.

>>> from repro.cluster.simulation import ClusterConfig
>>> make_plan(ClusterConfig(n_nodes=2)).name
'serial'
>>> plan = make_plan(ClusterConfig(n_nodes=2, ingest_workers=4))
>>> plan.name, plan.workers, plan.delivery_batch
('parallel', 4, 64)
"""

from __future__ import annotations

import abc
import os
import subprocess
import sys
from collections import defaultdict
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager
from threading import Lock
from time import perf_counter
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from repro.cluster.checkpoint import install_transfer_state, transfer_state
from repro.cluster.node import IngestNode
from repro.cluster.rebalance import MigrationBatch
from repro.cluster.transport import FrameStream
from repro.errors import ParameterError, StateError
from repro.obs import Telemetry
from repro.stream.workload import KeyedEvent

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.cluster.simulation import (
        ClusterConfig,
        ClusterSimulation,
        NodeFailure,
        ScaleEvent,
    )

__all__ = [
    "StreamDriver",
    "DeliveryBackend",
    "ThreadBackend",
    "FleetBackend",
    "ExecutionPlan",
    "SerialPlan",
    "ParallelPlan",
    "ProcessPlan",
    "WorkerFleet",
    "PLAN_NAMES",
    "PLAN_REGISTRY",
    "make_plan",
    "worker_environment",
]


class StreamDriver:
    """The one event loop behind every execution plan.

    :meth:`run` drives a whole stream, barriers included; :meth:`step`
    routes and accounts for one event.  It is the simulation's event
    loop, kept beside the backends it feeds, so it advances the
    simulation's delivery bookkeeping (stream position, checkpoint
    budgets) directly.  The ``route`` stage times the coordinator's
    per-event work between two hand-offs to the backend.
    """

    def __init__(
        self,
        simulation: "ClusterSimulation",
        backend: "DeliveryBackend",
        delivery_batch: int,
    ) -> None:
        self._simulation = simulation
        self._backend = backend
        self._batch = delivery_batch
        self._route = simulation.router.route_event
        self._wal = simulation.store.wal
        self._since_checkpoint = simulation._since_checkpoint
        self._dead = simulation._dead
        telemetry = simulation.telemetry
        self._telemetry = telemetry
        self._tracing = telemetry.trace_active
        self._timer = telemetry.stage_timer()
        config = simulation.config
        #: Gossip rounds are exact stream positions too — every
        #: ``gossip_every`` events of a run — so they fence like the
        #: other barriers and every plan gossips against the same state.
        self._gossip_every = (
            config.gossip_every if simulation.gossip is not None else None
        )
        #: node id -> routed-but-unsent events, in stream order.
        self._pending: dict[int, list[KeyedEvent]] = {}
        #: node id -> the node's retained WAL length, counting routed
        #: events not yet appended.  Exact after every drain; read
        #: lazily from the WAL after a barrier (which may checkpoint
        #: any node), so the segment fence fires at the same stream
        #: position whether or not the backend has caught up.
        self._retained: dict[int, int] = {}
        self._routed = 0
        self._stretch = perf_counter()

    # ------------------------------------------------------------------
    # stage timing
    # ------------------------------------------------------------------
    def _pause(self) -> None:
        """Fold the routing stretch since :meth:`_resume` into ``route``."""
        self._timer.add(
            "route", perf_counter() - self._stretch, self._routed
        )
        self._routed = 0

    def _resume(self) -> None:
        self._stretch = perf_counter()

    # ------------------------------------------------------------------
    # delivery
    # ------------------------------------------------------------------
    def _send(self, node_id: int) -> None:
        batch = self._pending.pop(node_id, None)
        if batch:
            self._backend.send(node_id, batch)

    def _send_all(self) -> None:
        for node_id in sorted(self._pending):
            self._send(node_id)

    def step(self, event: KeyedEvent) -> None:
        """Route one event and account for it.

        Sends the node's batch once it holds ``delivery_batch`` events,
        and fences the node — send, drain, checkpoint — when
        :meth:`~repro.cluster.simulation.ClusterSimulation.fence_due`
        says so.
        """
        simulation = self._simulation
        node_id = self._route(event)
        self._routed += 1
        simulation._stream_position += 1
        batch = self._pending.get(node_id)
        if batch is None:
            batch = self._pending[node_id] = []
        batch.append(event)
        retained = self._retained.get(node_id)
        if retained is None:
            retained = self._wal.retained_events(node_id)
        retained += 1
        self._retained[node_id] = retained
        # A dead node still owns its key range: the event parks in its
        # durable log (the ingest tier's unacknowledged queue) and
        # replays into the bank when membership heals the node.  No
        # checkpoint budget and no fence — a dead node's WAL grows past
        # the segment bound on purpose, and fencing it would lose
        # events; the heal fences.
        dead = node_id in self._dead
        if self._tracing:
            self._telemetry.position = simulation._stream_position
            self._telemetry.trace(
                "event_deferred" if dead else "event_delivered",
                node=node_id,
                count=event.count,
            )
        if not dead:
            self._since_checkpoint[node_id] += event.count
            if simulation.fence_due(node_id, retained):
                # Per-node fence: only this node's batches must land
                # before its checkpoint; the other nodes keep streaming.
                self._pause()
                self._send(node_id)
                self._backend.drain((node_id,))
                simulation.checkpoint_node(node_id)
                self._retained[node_id] = 0
                self._resume()
                return
        if len(batch) >= self._batch:
            self._pause()
            self._send(node_id)
            self._resume()

    # ------------------------------------------------------------------
    # the stream
    # ------------------------------------------------------------------
    def _barrier(self, position: int) -> None:
        """Run every barrier scheduled just before ``position``.

        The order is fixed — retention boundary, gossip round, scale
        events, crashes — and every plan relies on it.  Each runs after
        every routed event is sent and the backend's barrier has
        drained (or, for the process plan, resynced) the nodes.
        """
        simulation = self._simulation
        config = simulation.config
        retention = config.retention
        boundary = retention is not None and retention.is_boundary(position)
        every = self._gossip_every
        gossip = every is not None and position > 0 and position % every == 0
        scales = [s for s in config.scale_events if s.at_event == position]
        backend = self._backend
        self._pause()
        self._send_all()
        with backend.barrier(resync=boundary or bool(scales)):
            if boundary:
                backend.collapse_window()
            if gossip:
                simulation.gossip_round()
            for scale in scales:
                backend.apply_scale(scale)
            for failure in config.failures:
                if failure.at_event == position:
                    backend.apply_failure(failure)
        self._retained.clear()
        self._resume()

    def run(self, events: Iterable[KeyedEvent]) -> None:
        """Deliver ``events``; returns when every event is applied.

        Barrier positions are found without testing every event:
        scheduled scale events and crashes sit at listed positions,
        retention boundaries and gossip rounds on multiples of their
        period; :meth:`_barrier` re-checks each predicate.
        """
        simulation = self._simulation
        config = simulation.config
        listed = {
            action.at_event
            for action in (*config.scale_events, *config.failures)
        }
        retention = config.retention
        periods = [retention.window_events] if retention is not None else []
        if self._gossip_every is not None:
            periods.append(self._gossip_every)

        def next_stop(position: int) -> int | None:
            stops = [at for at in listed if at > position]
            stops += [(max(position, 0) // p + 1) * p for p in periods]
            return min(stops, default=None)

        with self._backend:
            self._resume()
            stop = next_stop(-1)
            for position, event in enumerate(events):
                if position == stop:
                    self._barrier(position)
                    stop = next_stop(position)
                self.step(event)
            self._pause()
            # End of stream is the final barrier: everything lands (the
            # process plan also pulls the workers into its mirrors at
            # the point where the run's closing flush happens).
            self._send_all()
            with self._backend.barrier(resync=True):
                pass


class DeliveryBackend:
    """Where routed batches are applied: inline, on the calling thread.

    The serial plan's backend and the base of the other two.  A
    backend is a context manager around one :meth:`StreamDriver.run`;
    subclasses move :meth:`send` elsewhere and override the hooks that
    keep their copies of node state in step with the simulation.
    """

    def __init__(self, simulation: "ClusterSimulation") -> None:
        self._simulation = simulation

    def __enter__(self) -> "DeliveryBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass

    def _log(self, node_id: int, batch: list[KeyedEvent]) -> None:
        """WAL-append one node's batch, timed as the ``deliver`` stage."""
        append = self._simulation.store.wal.append
        started = perf_counter()
        for event in batch:
            append(node_id, event)
        self._simulation.telemetry.stage_timer().add(
            "deliver", perf_counter() - started, len(batch)
        )

    def send(self, node_id: int, batch: list[KeyedEvent]) -> None:
        """Hand over one node's next batch: log and apply it inline.

        This touches only ``node_id``'s state (its WAL segments and its
        node's buffer and bank), which is what makes concurrent calls
        for *different* nodes safe without locks.  A dead node's batch
        parks in its WAL only; the heal's WAL replay applies it.
        """
        simulation = self._simulation
        self._log(node_id, batch)
        if simulation.is_node_dead(node_id):
            return
        started = perf_counter()
        simulation._nodes[node_id].submit_all(batch)
        simulation.telemetry.stage_timer().add(
            "bank_consume", perf_counter() - started, len(batch)
        )

    def drain(self, node_ids: Sequence[int]) -> None:
        """Return once every batch sent to ``node_ids`` is applied."""

    @contextmanager
    def barrier(self, resync: bool) -> Iterator[None]:
        """Bracket scheduled cluster operations (and the end of the
        stream); ``resync`` is set when they read or rewrite every
        node's state (a window collapse or a scale event)."""
        yield

    def collapse_window(self) -> None:
        self._simulation.collapse_window()

    def apply_scale(self, scale: "ScaleEvent") -> None:
        self._simulation.apply_scale(scale)

    def apply_failure(self, failure: "NodeFailure") -> None:
        self._simulation.apply_failure(failure)


class ThreadBackend(DeliveryBackend):
    """Batches applied by a pool of ``workers`` threads.

    A node's batches form a chain — each task first waits on the node's
    previous batch — so one node is only ever touched by one thread at
    a time, which each task also *verifies* with a non-blocking lock (a
    violation raises :class:`~repro.errors.StateError` instead of
    corrupting a bank).  Worker threads time ``deliver`` and
    ``bank_consume`` into their own thread-confined timers, merged only
    at snapshot time, so the hot path takes no locks.
    """

    def __init__(self, simulation: "ClusterSimulation", workers: int) -> None:
        super().__init__(simulation)
        self._workers = workers
        #: node id -> the tail of the node's batch chain.
        self._tails: dict[int, Future] = {}
        #: node id -> confinement guard asserting one-thread-per-node.
        self._locks: dict[int, Lock] = defaultdict(Lock)

    def __enter__(self) -> "ThreadBackend":
        self._executor = ThreadPoolExecutor(
            max_workers=self._workers, thread_name_prefix="repro-ingest"
        )
        return self

    def __exit__(self, exc_type: object, *exc_info: object) -> None:
        if exc_type is not None:
            # Unwind cleanly: queued batches must not keep applying
            # while the caller handles the failure (running ones
            # finish under the executor's shutdown).
            for future in self._tails.values():
                future.cancel()
        self._executor.shutdown(wait=True)

    def send(self, node_id: int, batch: list[KeyedEvent]) -> None:
        previous = self._tails.get(node_id)
        lock = self._locks[node_id]
        apply_inline = super().send

        def apply() -> None:
            if previous is not None:
                # Order handshake: the node's prior batch must land
                # first (re-raises its failure, if any).
                previous.result()
            if not lock.acquire(blocking=False):
                raise StateError(
                    f"node {node_id} batch applied concurrently; "
                    "per-node delivery must be thread-confined"
                )
            try:
                apply_inline(node_id, batch)
            finally:
                lock.release()

        self._tails[node_id] = self._executor.submit(apply)

    def drain(self, node_ids: Sequence[int]) -> None:
        for node_id in node_ids:
            future = self._tails.pop(node_id, None)
            if future is not None:
                future.result()

    @contextmanager
    def barrier(self, resync: bool) -> Iterator[None]:
        # Global fence: barriers act on drained nodes only.  (A gossip
        # round flushes every bank into its digest entry, so it must
        # see no batch in flight.)
        self.drain(sorted(self._tails))
        yield


def worker_environment() -> dict[str, str]:
    """Environment for a worker subprocess: this ``repro`` on the path.

    Prepends the package root the coordinator imported ``repro`` from,
    so ``python -m repro.cluster.worker`` resolves to the same code in
    a test checkout, an installed package, or a tox venv.
    """
    import repro

    root = os.path.dirname(
        os.path.dirname(os.path.abspath(repro.__file__))
    )
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = (
        root + os.pathsep + existing if existing else root
    )
    return env


class WorkerFleet:
    """The coordinator's handle on a set of per-node worker processes.

    One pipe-mode ``python -m repro.cluster.worker`` subprocess per
    live node, addressed by node id.  The fleet speaks
    :mod:`repro.cluster.transport` frames and knows nothing about
    stream order or checkpoint policy — that is the driver's and
    :class:`FleetBackend`'s job; the fleet just moves state and batches
    between the coordinator's mirror nodes and the workers that own the
    live banks.
    """

    def __init__(self) -> None:
        self._procs: dict[int, subprocess.Popen[bytes]] = {}
        self._streams: dict[int, FrameStream] = {}

    def node_ids(self) -> list[int]:
        """Ids with a live worker, ascending."""
        return sorted(self._streams)

    def spawn(self, node: IngestNode) -> None:
        """Launch one worker as an exact copy of ``node``: built from
        its :meth:`~repro.cluster.node.IngestNode.init_params`, then
        given its full state (what an earlier run, a recovery or a
        migration left in it)."""
        if node.node_id in self._streams:
            raise StateError(
                f"node {node.node_id} already has a worker process"
            )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cluster.worker"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=worker_environment(),
        )
        stream = FrameStream(proc.stdout, proc.stdin)
        try:
            stream.request("init", "ok", **node.init_params())
            stream.request("adopt_state", "ok", **transfer_state(node))
        except BaseException:
            proc.kill()
            proc.wait()
            stream.close()
            raise
        self._procs[node.node_id] = proc
        self._streams[node.node_id] = stream

    def deliver(
        self, node_id: int, batch: Sequence[KeyedEvent]
    ) -> None:
        """Ship one routed batch (pipelined: no reply expected)."""
        self._streams[node_id].send(
            "deliver_batch",
            events=[[event.key, event.count] for event in batch],
        )

    def drain(
        self, node_ids: Sequence[int], mirrors: dict[int, IngestNode]
    ) -> None:
        """Pull ``node_ids``' workers into their mirrors: request every
        snapshot first (the workers flush concurrently), then collect
        and install them in order.  The pull is also the sync
        handshake: a worker services frames in order, so its reply
        covers every batch shipped before it."""
        for node_id in node_ids:
            self._streams[node_id].send("snapshot_request", flush=True)
        for node_id in node_ids:
            reply = self._streams[node_id].expect("snapshot_reply")
            install_transfer_state(mirrors[node_id], reply)

    def pull_all(self, mirrors: dict[int, IngestNode]) -> None:
        """Barrier pull: :meth:`drain` every worker."""
        self.drain(self.node_ids(), mirrors)

    def push(self, mirror: IngestNode) -> None:
        """Install ``mirror``'s full state into its live worker (after
        a window reset)."""
        self._streams[mirror.node_id].request(
            "adopt_state", "ok", **transfer_state(mirror)
        )

    def ship_batch(
        self,
        line: str,
        seed: int,
        mirrors: dict[int, IngestNode],
    ) -> None:
        """Replicate one migration batch into the fleet, in lockstep
        with the coordinator's in-process rebalance.

        The source worker drains the moved keys; the target worker
        absorbs the coordinator's line (the authoritative wire record)
        on the same ``(seed, epoch, key)``-derived streams as the
        mirror.  A scale-up target without a worker yet is spawned
        lazily as a copy of its mirror, covering batches the mirror
        already absorbed.
        """
        batch = MigrationBatch.decode(line)
        if batch.source in self._streams:
            self._streams[batch.source].request(
                "migrate_out", "ok", keys=sorted(batch.snapshots)
            )
        if batch.target not in self._streams:
            self.spawn(mirrors[batch.target])
        self._streams[batch.target].request(
            "absorb", "ok", line=line, seed=seed
        )

    def kill(self, node_id: int) -> None:
        """SIGKILL one worker — the real crash injection."""
        proc = self._procs.pop(node_id)
        stream = self._streams.pop(node_id)
        proc.kill()
        proc.wait()
        stream.close()

    def collect_metrics(
        self, node_id: int, telemetry: Telemetry
    ) -> None:
        """Pull one worker's stage timings into the facade."""
        reply = self._streams[node_id].request(
            "metrics_pull", "metrics_reply"
        )
        telemetry.absorb_stages(reply["stages"])

    def shutdown(self, node_id: int) -> None:
        """Clean protocol exit for one worker."""
        proc = self._procs.pop(node_id)
        stream = self._streams.pop(node_id)
        try:
            stream.send("shutdown")
            stream.expect("bye")
        finally:
            stream.close()
            proc.wait()

    def reconcile(
        self, mirrors: dict[int, IngestNode], telemetry: Telemetry
    ) -> None:
        """Match the fleet to the live topology after a scale event:
        retire workers whose nodes left (salvaging their stage
        timings), spawn workers for nodes that joined."""
        live = set(mirrors)
        for node_id in sorted(set(self._streams) - live):
            self.collect_metrics(node_id, telemetry)
            self.shutdown(node_id)
        for node_id in sorted(live - set(self._streams)):
            self.spawn(mirrors[node_id])

    def shutdown_all(self, telemetry: Telemetry) -> None:
        """End-of-stream teardown: salvage metrics, then clean exits."""
        for node_id in self.node_ids():
            self.collect_metrics(node_id, telemetry)
        for node_id in self.node_ids():
            self.shutdown(node_id)

    def terminate(self) -> None:
        """Hard unwind (exception path): SIGKILL everything left."""
        for node_id in sorted(self._procs):
            self.kill(node_id)


class FleetBackend(DeliveryBackend):
    """Batches shipped to one OS worker process per node.

    Workers own compute state (bank, coalescing buffer, lifetime
    stats); the coordinator's nodes become *mirrors*, pulled from the
    workers (one ``snapshot_request`` with ``flush=true`` per node) at
    every per-node checkpoint fence and at the barriers that read
    every node, so checkpoints, migrations, retention collapses, and
    crash recovery run the simulation's own code on the mirrors.  The
    coordinator owns all durable state: it WAL-appends every batch
    before shipping it (recovery never trusts a worker), saves the
    checkpoints it captures from the synced mirrors, journals
    migrations, and writes the manifest.  A scheduled crash really
    SIGKILLs the worker; the mirror recovers by checkpoint + WAL replay
    and seeds a fresh one.
    """

    def __init__(self, simulation: "ClusterSimulation") -> None:
        super().__init__(simulation)
        self._fleet = WorkerFleet()

    def _mirrors(self) -> dict[int, IngestNode]:
        return {node.node_id: node for node in self._simulation.nodes}

    def __enter__(self) -> "FleetBackend":
        try:
            for node in self._simulation.nodes:
                self._fleet.spawn(node)
        except BaseException:
            self._fleet.terminate()
            raise
        return self

    def __exit__(self, exc_type: object, *exc_info: object) -> None:
        simulation = self._simulation
        try:
            if exc_type is None:
                # Salvage the workers' stage timings, exit cleanly.
                self._fleet.shutdown_all(simulation.telemetry)
        finally:
            # Hard unwind: SIGKILL whatever a failure left running
            # (nothing, after a clean shutdown).
            self._fleet.terminate()

    def send(self, node_id: int, batch: list[KeyedEvent]) -> None:
        self._log(node_id, batch)
        self._fleet.deliver(node_id, batch)

    def drain(self, node_ids: Sequence[int]) -> None:
        # Only a per-node checkpoint fence drains: pull the workers into
        # their mirrors, which the checkpoint then captures.
        self._fleet.drain(node_ids, self._mirrors())

    @contextmanager
    def barrier(self, resync: bool) -> Iterator[None]:
        """Sync the mirrors, then run the operations on them.

        Boundary collapses and scale events first pull the mirrors from
        the workers (pull-with-flush — the stream position where the
        serial loop flushes), then run the simulation's own operation
        against the mirrors; the step hooks below re-sync the fleet.
        Crashes skip the pull on purpose: the WAL is the authoritative
        replay source, exactly as in a real death.
        """
        if resync:
            self._fleet.pull_all(self._mirrors())
        yield

    def collapse_window(self) -> None:
        self._simulation.collapse_window()
        # Every mirror was reset onto a fresh window-derived seed; push
        # the reset state so workers resume bit-aligned (a full resync
        # point even on approximate templates).
        for mirror in self._simulation.nodes:
            self._fleet.push(mirror)

    def apply_scale(self, scale: "ScaleEvent") -> None:
        simulation = self._simulation
        seed = simulation.config.seed
        simulation.set_migration_observer(
            lambda line: self._fleet.ship_batch(line, seed, self._mirrors())
        )
        try:
            simulation.apply_scale(scale)
        finally:
            simulation.set_migration_observer(None)
        self._fleet.reconcile(self._mirrors(), simulation.telemetry)

    def apply_failure(self, failure: "NodeFailure") -> None:
        self._fleet.kill(failure.node_id)
        self._simulation.apply_failure(failure)
        self._fleet.spawn(self._mirrors()[failure.node_id])


class ExecutionPlan(abc.ABC):
    """Strategy for driving one event stream through a simulation.

    Every plan runs the :class:`StreamDriver`; a plan only picks the
    :class:`DeliveryBackend` its batches of ``delivery_batch`` routed
    events go to, so what the cluster computes stays a pure function of
    ``(config, stream)``.
    """

    #: Short name used in logs, reprs, and tests.
    name: str = "?"

    def __init__(self, delivery_batch: int = 64) -> None:
        if delivery_batch < 1:
            raise ParameterError(
                f"delivery_batch must be >= 1, got {delivery_batch}"
            )
        self._delivery_batch = delivery_batch

    @property
    def delivery_batch(self) -> int:
        """Routed events accumulated per node before dispatch."""
        return self._delivery_batch

    @abc.abstractmethod
    def execute(
        self, simulation: "ClusterSimulation", events: Iterable[KeyedEvent]
    ) -> None:
        """Deliver ``events``; returns when every event is applied."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(name={self.name!r})"


class SerialPlan(ExecutionPlan):
    """The single-threaded reference: batches applied inline."""

    name = "serial"

    def execute(
        self, simulation: "ClusterSimulation", events: Iterable[KeyedEvent]
    ) -> None:
        backend = DeliveryBackend(simulation)
        StreamDriver(simulation, backend, self.delivery_batch).run(events)


class ParallelPlan(ExecutionPlan):
    """Worker-sharded delivery behind the sequential driver
    (:class:`ThreadBackend`)."""

    name = "parallel"

    def __init__(self, workers: int, delivery_batch: int = 64) -> None:
        if workers < 1:
            raise ParameterError(f"workers must be >= 1, got {workers}")
        super().__init__(delivery_batch)
        self._workers = workers

    @property
    def workers(self) -> int:
        """Size of the node-worker thread pool."""
        return self._workers

    def execute(
        self, simulation: "ClusterSimulation", events: Iterable[KeyedEvent]
    ) -> None:
        backend = ThreadBackend(simulation, self._workers)
        StreamDriver(simulation, backend, self.delivery_batch).run(events)


class ProcessPlan(ExecutionPlan):
    """One OS process per node behind the checksummed wire protocol
    (:class:`FleetBackend`).

    On ``exact`` templates every sync point is bit-identical to the
    serial loop (RNG-free operations on identical state), so a process
    run's fingerprint equals the serial run's at the same seed —
    crashes, migrations, and retention included.
    """

    name = "process"

    def execute(
        self, simulation: "ClusterSimulation", events: Iterable[KeyedEvent]
    ) -> None:
        backend = FleetBackend(simulation)
        StreamDriver(simulation, backend, self.delivery_batch).run(events)


#: Execution-plan registry: name -> factory over the cluster config.
PLAN_REGISTRY: dict[
    str, Callable[["ClusterConfig"], ExecutionPlan]
] = {
    "serial": lambda config: SerialPlan(config.delivery_batch),
    "parallel": lambda config: ParallelPlan(
        config.ingest_workers, config.delivery_batch
    ),
    "process": lambda config: ProcessPlan(config.delivery_batch),
}

#: Valid explicit plan names (``"auto"`` additionally resolves by
#: worker count), for CLI choices and error messages.
PLAN_NAMES: tuple[str, ...] = tuple(sorted(PLAN_REGISTRY))


def make_plan(config: "ClusterConfig") -> ExecutionPlan:
    """The execution plan a config asks for.

    ``plan="auto"`` (the default) keeps the historical rule: the
    serial loop at ``ingest_workers=1`` — the reference semantics
    every other plan must reproduce bit for bit — and the thread
    parallel plan above.  Explicit names resolve through
    :data:`PLAN_REGISTRY`; the config has already refused unknown ones.
    """
    name = config.plan
    if name == "auto":
        name = "serial" if config.ingest_workers <= 1 else "parallel"
    return PLAN_REGISTRY[name](config)
