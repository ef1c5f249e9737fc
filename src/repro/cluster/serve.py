"""``cluster serve``: worker daemons with a managed lifecycle.

The process execution plan (:class:`~repro.cluster.pipeline.
ProcessPlan`) spawns its workers as children for the duration of one
run.  This module is the other deployment shape: *long-running* worker
daemons, one per node, listening on Unix sockets under the cluster
storage directory — brought up, inspected, and torn down by the
``cluster serve up | ps | status | down`` CLI subcommands.

Layout under ``<root>/serve/``::

    fleet.json        what was launched (template, seed, worker table)
    node-<id>.sock    the worker's Unix listening socket
    node-<id>.pid     written by the worker *after* bind — readiness
    node-<id>.log     the worker's captured stderr

Every worker is a ``python -m repro.cluster.worker --listen ...``
daemon, started in its own session by a launcher process that exits
at once (so it outlives the CLI process and is nobody's child),
seeded with :func:`~repro.cluster.simulation.node_seed` — the same
derivation the in-process simulation uses, so state moves freely
between deployment modes.  The pidfile doubles as the readiness
marker: the worker writes it only once its socket is bound and
accepting, which is what :func:`fleet_up` polls for.

Lifecycle contract:

* ``up`` refuses to run while a ``fleet.json`` exists — a half-dead
  fleet is ``down``'s job to clean up, not ``up``'s to silently
  replace.
* ``down`` prefers the protocol (``shutdown`` → ``bye``, the worker
  unlinks its own socket and pidfile), then escalates to ``SIGTERM``
  and finally ``SIGKILL``, and always removes ``fleet.json`` so the
  next ``up`` can proceed.  Logs are kept.

The fleet's *serving* face is
:meth:`ClusterReader.from_fleet <repro.cluster.query.ClusterReader.
from_fleet>`: the one query API, read from the live workers over the
wire protocol (``snapshot_request`` with ``flush=false`` — the
documented pure read — for bounded-staleness replica answers;
``flush=true``, the barrier pull, for consistent ones).  ``cluster
serve query up | status | down`` manages an HTTP daemon (``python -m
repro.cluster.httpd``) exposing it, recorded as ``query.json`` /
``query.pid`` / ``query.log`` next to the fleet.
Both kinds of daemon are started by one launcher (:func:`_spawn`) and
signalled down by one ``SIGTERM`` → ``SIGKILL`` escalation.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, NamedTuple

from repro.cluster.aggregator import FoldMemo, GlobalView, fold_banks
from repro.cluster.checkpoint import BankCheckpoint
from repro.cluster.entities import StalenessInfo
from repro.cluster.node import CounterTemplate, IngestNode
from repro.cluster.pipeline import worker_environment
from repro.cluster.simulation import node_seed
from repro.cluster.transport import FrameStream
from repro.errors import ParameterError, StateError

__all__ = [
    "fleet_down",
    "fleet_paths",
    "fleet_ps",
    "fleet_status",
    "fleet_up",
    "load_fleet",
    "load_query",
    "query_down",
    "query_status",
    "query_up",
]

_FLEET_FILE = "fleet.json"
_QUERY_FILE = "query.json"
_POLL_S = 0.05


def fleet_paths(root: str | Path) -> Path:
    """The serve directory under a cluster storage root."""
    return Path(root) / "serve"


def _worker_paths(base: Path, node_id: int) -> tuple[Path, Path, Path]:
    stem = f"node-{node_id}"
    return (
        base / f"{stem}.sock",
        base / f"{stem}.pid",
        base / f"{stem}.log",
    )


def _pid_alive(pid: int) -> bool:
    # Daemons are never our children (see _spawn), so a dead one is
    # reaped by init and signal 0 alone decides.
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, not ours
        pass
    return True


def _read_pid(pidfile: Path) -> int | None:
    try:
        text = pidfile.read_text(encoding="utf-8").strip()
    except OSError:
        return None
    return int(text) if text.isdigit() else None


def _load_record(path: Path, what: str, command: str) -> dict[str, Any]:
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise StateError(
            f"no {what} is recorded under {path.parent} — "
            f"run '{command}' first"
        )
    return json.loads(text)


def load_fleet(root: str | Path) -> dict[str, Any]:
    """The ``fleet.json`` record of the fleet launched under ``root``."""
    return _load_record(
        fleet_paths(root) / _FLEET_FILE, "fleet", "cluster serve up"
    )


class _Daemon(NamedTuple):
    """``python -m <argv>``, logging to ``log``, ready once ``marker``
    exists; ``marker`` and ``leftovers`` are cleared on launch and failure."""

    name: str
    argv: list[str]
    log: Path
    marker: Path
    leftovers: tuple[Path, ...]


#: Run by a short-lived launcher interpreter: start ``argv`` in its
#: own session with stdout on the launcher's stderr (the daemon's log),
#: print its pid, exit.  The daemon is orphaned at once, so the caller
#: holds no handle on it and init reaps it when it dies.
_DETACH = (
    "import subprocess, sys; "
    "print(subprocess.Popen(sys.argv[1:], stdout=2, "
    "start_new_session=True).pid)"
)


def _spawn(daemons: list[_Daemon], timeout: float) -> list[int]:
    """Start every daemon detached and wait until all are ready; if one
    is not, all are stopped and the launch fails whole.  Returns the
    daemons' pids."""
    launched: list[int] = []
    try:
        for daemon in daemons:
            for stale in (daemon.marker, *daemon.leftovers):
                stale.unlink(missing_ok=True)
            argv = [sys.executable, "-m", *daemon.argv]
            with open(daemon.log, "ab") as log:
                launcher = subprocess.run(
                    [sys.executable, "-c", _DETACH, *argv],
                    stdin=subprocess.DEVNULL,
                    stdout=subprocess.PIPE,
                    stderr=log,
                    env=worker_environment(),
                    check=True,
                )
            launched.append(int(launcher.stdout))
        _wait_ready(daemons, launched, timeout)
    except BaseException:
        for pid in launched:
            _signal_down(pid, timeout)
        for daemon in daemons:
            for leftover in (daemon.marker, *daemon.leftovers):
                leftover.unlink(missing_ok=True)
        raise
    return launched


def _wait_ready(
    daemons: list[_Daemon], pids: list[int], timeout: float
) -> None:
    """Wait for every marker; fail when a daemon exits or on timeout."""
    deadline = time.monotonic() + timeout
    for daemon, pid in zip(daemons, pids):
        while not daemon.marker.exists():
            if not _pid_alive(pid):
                raise StateError(
                    f"{daemon.name} exited before becoming ready — "
                    f"see {daemon.log}"
                )
            if time.monotonic() > deadline:
                raise StateError(
                    f"{daemon.name} did not become ready within "
                    f"{timeout:g}s — see {daemon.log}"
                )
            time.sleep(_POLL_S)


def fleet_up(
    root: str | Path,
    n_nodes: int,
    template: CounterTemplate,
    seed: int = 0,
    buffer_limit: int = 512,
    track_truth: bool = True,
    timeout: float = 10.0,
) -> list[dict[str, Any]]:
    """Launch one worker daemon per node; returns the worker table.

    Blocks until every worker's pidfile appears (socket bound and
    accepting).  When a worker exits first, or ``timeout`` seconds
    pass, every worker is stopped and the launch fails whole, pointing
    at the failed worker's log.
    """
    if n_nodes < 1:
        raise ParameterError(f"n_nodes must be >= 1, got {n_nodes}")
    base = fleet_paths(root)
    base.mkdir(parents=True, exist_ok=True)
    if (base / _FLEET_FILE).exists():
        raise StateError(
            f"a fleet is already recorded in {base / _FLEET_FILE} — "
            "run 'cluster serve down' before launching another"
        )
    daemons = []
    workers: list[dict[str, Any]] = []
    for node_id in range(n_nodes):
        sock_path, pid_path, log_path = _worker_paths(base, node_id)
        init = IngestNode(
            node_id,
            template,
            seed=node_seed(seed, node_id),
            buffer_limit=buffer_limit,
            track_truth=track_truth,
        ).init_params()
        daemons.append(
            _Daemon(
                f"worker for node {node_id}",
                [
                    "repro.cluster.worker",
                    "--listen",
                    str(sock_path),
                    "--pidfile",
                    str(pid_path),
                    "--init-json",
                    json.dumps(init, sort_keys=True, allow_nan=False),
                ],
                log_path,
                pid_path,
                (sock_path,),
            )
        )
        workers.append(
            {
                "node": node_id,
                "socket": str(sock_path),
                "pidfile": str(pid_path),
                "log": str(log_path),
            }
        )
    for record, pid in zip(workers, _spawn(daemons, timeout)):
        record["pid"] = pid
    payload = {
        "version": 1,
        "seed": seed,
        "n_nodes": n_nodes,
        "template": template.to_dict(),
        "buffer_limit": buffer_limit,
        "track_truth": track_truth,
        "workers": workers,
    }
    (base / _FLEET_FILE).write_text(
        json.dumps(payload, sort_keys=True, allow_nan=False, indent=2)
        + "\n",
        encoding="utf-8",
    )
    return workers


def fleet_ps(root: str | Path) -> list[dict[str, Any]]:
    """One row per launched worker: liveness from pidfile + signal 0."""
    fleet = load_fleet(root)
    rows = []
    for record in fleet["workers"]:
        pid = _read_pid(Path(record["pidfile"]))
        if pid is None:
            pid, state = record["pid"], "stopped"
        else:
            state = "running" if _pid_alive(pid) else "stopped"
        rows.append(
            {
                "node": record["node"],
                "pid": pid,
                "state": state,
                "socket": record["socket"],
                "log": record["log"],
            }
        )
    return rows


@contextmanager
def _connect(
    record: dict[str, Any], timeout: float
) -> Iterator[FrameStream]:
    """A frame stream over one worker's socket, closed on exit."""
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(timeout)
    try:
        sock.connect(record["socket"])
    except OSError:
        sock.close()
        raise
    stream = FrameStream.from_socket(sock)
    sock.close()  # the stream's file objects keep the fd alive
    try:
        yield stream
    finally:
        stream.close()


def fleet_status(
    root: str | Path, timeout: float = 5.0
) -> list[dict[str, Any]]:
    """One row per worker, filled by a live ``ping`` over its socket."""
    fleet = load_fleet(root)
    rows = []
    for record in fleet["workers"]:
        row: dict[str, Any] = {"node": record["node"]}
        try:
            with _connect(record, timeout) as stream:
                pong = stream.request("ping", "pong")
        except (StateError, OSError) as exc:
            row.update(state="unreachable", error=str(exc))
        else:
            row.update(
                state="running",
                pid=pong["pid"],
                keys=pong["keys"],
                pending=pong["pending"],
                events_ingested=pong["events_ingested"],
            )
        rows.append(row)
    return rows


def fleet_down(
    root: str | Path, timeout: float = 10.0
) -> list[dict[str, Any]]:
    """Stop every worker and forget the fleet; returns outcome rows.

    Every live worker is first asked for a protocol shutdown (the
    worker unlinks its own socket and pidfile), so their exits
    overlap; one that does not answer, or is not gone within its share
    of ``timeout``, then gets ``SIGTERM`` and finally ``SIGKILL``.
    Always removes ``fleet.json``.
    """
    base = fleet_paths(root)
    share = max(timeout / 2, _POLL_S)
    workers = [
        (record, _read_pid(Path(record["pidfile"])) or record["pid"])
        for record in load_fleet(root)["workers"]
    ]
    answered = {
        record["node"]: _ask_shutdown(record, share)
        for record, pid in workers
        if _pid_alive(pid)
    }
    rows = []
    for record, pid in workers:
        node_id = record["node"]
        if node_id not in answered:
            outcome = "already stopped"
        elif answered[node_id] and _wait_dead(pid, share):
            outcome = "stopped"
        else:
            outcome = _signal_down(pid, share)
        Path(record["socket"]).unlink(missing_ok=True)
        Path(record["pidfile"]).unlink(missing_ok=True)
        rows.append({"node": node_id, "pid": pid, "state": outcome})
    (base / _FLEET_FILE).unlink(missing_ok=True)
    return rows


def _ask_shutdown(record: dict[str, Any], timeout: float) -> bool:
    """Protocol shutdown; whether the worker said ``bye``."""
    try:
        with _connect(record, timeout) as stream:
            stream.send("shutdown")
            stream.expect("bye")
    except (StateError, OSError):
        return False
    return True


def _signal_down(pid: int, share: float) -> str:
    """SIGTERM, then SIGKILL, ``share`` seconds each; how it ended."""
    for sig, outcome in (
        (signal.SIGTERM, "terminated"),
        (signal.SIGKILL, "killed"),
    ):
        try:
            os.kill(pid, sig)
        except ProcessLookupError:
            return "stopped"
        if _wait_dead(pid, share):
            return outcome
    return "killed"  # pragma: no cover - SIGKILL cannot be refused


def _wait_dead(pid: int, timeout: float) -> bool:
    deadline = time.monotonic() + timeout
    while _pid_alive(pid):
        if time.monotonic() > deadline:
            return False
        time.sleep(_POLL_S)
    return True


# ----------------------------------------------------------------------
# the fleet's serving face: the reader's wire source
# ----------------------------------------------------------------------
class _FleetSource:
    """:class:`~repro.cluster.query.ClusterReader` reads over a fleet.

    Built by :meth:`ClusterReader.from_fleet
    <repro.cluster.query.ClusterReader.from_fleet>`; answers over the
    wire protocol against the live worker daemons:

    ``"replica"``
        ``snapshot_request`` with ``flush=false`` per worker — the
        protocol's documented pure read.  Events a worker has accepted
        but not yet flushed are missing from the answer; the staleness
        stamp reports exactly that lag (the sum of every worker's
        ``pending``), bounded by ``buffer_limit × n_nodes``.
    ``"consistent"``
        ``flush=true`` — the barrier pull.  Every worker applies its
        buffer first; zero lag, paid for with one flush per worker.

    Workers shard the keyspace (they are not gossip replicas of each
    other), so every read folds all of them and targeting a single
    ``replica=`` node id is refused.  The read cache is stamped by a
    ``ping`` sweep — ``(node, events_ingested, pending)`` per worker —
    so repeated reads against an idle fleet pull snapshots once.
    """

    default_consistency = "replica"

    def __init__(self, root: str | Path, timeout: float) -> None:
        self._fleet = load_fleet(root)
        self._timeout = timeout
        self.replicas = tuple(
            record["node"] for record in self._fleet["workers"]
        )

    def resolve_replica(
        self, consistency: str, replica: int | None
    ) -> None:
        if replica is not None:
            raise ParameterError(
                "fleet reads fold every worker (workers shard the "
                "keyspace, they are not replicas of each other); "
                "replica= selection applies to gossip clusters"
            )

    @staticmethod
    def _stamp_of(
        pings: list[dict[str, Any]]
    ) -> tuple[tuple[int, int, int], ...]:
        return tuple(
            (pong["node"], pong["events_ingested"], pong["pending"])
            for pong in sorted(pings, key=lambda p: p["node"])
        )

    def stamp(
        self, consistency: str, replica: None
    ) -> tuple[tuple[int, int, int], ...]:
        """``(node, events_ingested, pending)`` per worker, by ``ping``."""
        pings = []
        for record in self._fleet["workers"]:
            with _connect(record, self._timeout) as stream:
                pings.append(stream.request("ping", "pong"))
        return self._stamp_of(pings)

    def fold(
        self, consistency: str, replica: None
    ) -> tuple[GlobalView, Any]:
        """Snapshot every worker (flushing first on the consistent
        path), then ping it on the same connection so the stamp
        reflects the pulled state."""
        banks = []
        pings = []
        for record in self._fleet["workers"]:
            with _connect(record, self._timeout) as stream:
                reply = stream.request(
                    "snapshot_request",
                    "snapshot_reply",
                    flush=consistency == "consistent",
                )
                pings.append(stream.request("ping", "pong"))
            banks.append(BankCheckpoint.decode(reply["line"]).restore())
        # Pulled banks are fresh objects with fresh stamps, so a memo
        # could never hit: each fold gets an empty one.
        view = fold_banks(
            [(bank.counters, bank.stamps, bank.truths) for bank in banks],
            2,
            0,
            FoldMemo(),
        )
        return view, self._stamp_of(pings)

    def staleness(
        self, consistency: str, replica: None
    ) -> StalenessInfo:
        lag = 0
        if consistency == "replica":
            stamp = self.stamp(consistency, replica)
            lag = sum(pending for _, _, pending in stamp)
        return StalenessInfo(
            consistency=consistency,
            replica=None,
            lag_events=lag,
            bound_events=(
                self._fleet["buffer_limit"] * self._fleet["n_nodes"]
            ),
            epoch=0,
        )


# ----------------------------------------------------------------------
# query daemon lifecycle
# ----------------------------------------------------------------------
def _query_paths(root: str | Path) -> tuple[Path, Path, Path]:
    base = fleet_paths(root)
    return (
        base / _QUERY_FILE,
        base / "query.pid",
        base / "query.log",
    )


def load_query(root: str | Path) -> dict[str, Any]:
    """The ``query.json`` record of the daemon serving ``root``."""
    return _load_record(
        _query_paths(root)[0], "query daemon", "cluster serve query up"
    )


def query_up(
    root: str | Path,
    host: str = "127.0.0.1",
    port: int = 0,
    timeout: float = 10.0,
) -> dict[str, Any]:
    """Launch the HTTP query daemon against the recorded fleet.

    Blocks until the daemon writes its ``query.json`` record (socket
    bound, port chosen — the record-after-bind readiness marker); if it
    exits first or ``timeout`` passes, it is stopped and the launch
    fails pointing at the log.  Returns the record.
    """
    load_fleet(root)  # loud when there is no fleet to serve
    record_path, pid_path, log_path = _query_paths(root)
    if record_path.exists():
        raise StateError(
            f"a query daemon is already recorded in {record_path} — "
            "run 'cluster serve query down' before launching another"
        )
    _spawn(
        [
            _Daemon(
                "query daemon",
                [
                    "repro.cluster.httpd",
                    "--fleet-dir",
                    str(root),
                    "--host",
                    host,
                    "--port",
                    str(port),
                    "--record",
                    str(record_path),
                    "--pidfile",
                    str(pid_path),
                ],
                log_path,
                record_path,
                (pid_path,),
            )
        ],
        timeout,
    )
    return json.loads(record_path.read_text(encoding="utf-8"))


def query_status(
    root: str | Path, timeout: float = 5.0
) -> dict[str, Any]:
    """One row for the query daemon, filled by a live ``/healthz``."""
    import urllib.error
    import urllib.request

    record = load_query(root)
    pid_path = _query_paths(root)[1]
    pid = _read_pid(pid_path) or record["pid"]
    row: dict[str, Any] = {"pid": pid, "url": record["url"]}
    if not _pid_alive(pid):
        row.update(state="stopped")
        return row
    try:
        with urllib.request.urlopen(
            record["url"] + "/healthz", timeout=timeout
        ) as response:
            health = json.loads(response.read().decode("utf-8"))
    except (urllib.error.URLError, OSError, ValueError) as exc:
        row.update(state="unreachable", error=str(exc))
        return row
    row.update(state="running", replicas=health["replicas"])
    return row


def query_down(
    root: str | Path, timeout: float = 10.0
) -> dict[str, Any]:
    """Stop the query daemon and forget its record; returns the outcome.

    ``SIGTERM`` first (the daemon unlinks its own record and pidfile on
    the way out), then ``SIGKILL``; always removes the record so the
    next ``up`` can proceed.  The log is kept.
    """
    record = load_query(root)
    record_path, pid_path, _ = _query_paths(root)
    pid = _read_pid(pid_path) or record["pid"]
    if not _pid_alive(pid):
        outcome = "already stopped"
    else:
        outcome = _signal_down(pid, max(timeout / 2, _POLL_S))
    record_path.unlink(missing_ok=True)
    pid_path.unlink(missing_ok=True)
    return {"pid": pid, "state": outcome}
