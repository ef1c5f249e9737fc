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
daemon (``start_new_session=True``, so it outlives the CLI process)
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

PR 9 adds the fleet's *serving* face: :class:`FleetReader` answers the
:class:`~repro.cluster.query.ClusterReader` query API against the live
workers over the wire protocol (``snapshot_request`` with
``flush=false`` — the documented pure read — for bounded-staleness
replica answers; ``flush=true``, the barrier pull, for consistent
ones), and ``cluster serve query up | status | down`` manages an HTTP
daemon (``python -m repro.cluster.httpd``) exposing it, recorded as
``query.json`` / ``query.pid`` / ``query.log`` next to the fleet with
the same record-after-bind readiness convention.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from repro.cluster.aggregator import FoldMemo, GlobalView, fold_banks
from repro.cluster.checkpoint import BankCheckpoint
from repro.cluster.entities import StalenessInfo
from repro.cluster.node import CounterTemplate
from repro.cluster.pipeline import worker_environment
from repro.cluster.query import ClusterReader
from repro.cluster.simulation import node_seed
from repro.cluster.transport import FrameStream
from repro.errors import ParameterError, StateError
from repro.obs import MetricsRegistry

__all__ = [
    "FleetReader",
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
    # When the worker is our own child (the launching process is still
    # around), a dead worker lingers as a zombie that signal 0 would
    # report alive — reap it first.  ECHILD means it was launched by
    # another process (the normal daemon case); signal 0 decides then.
    try:
        reaped, _ = os.waitpid(pid, os.WNOHANG)
        if reaped == pid:
            return False
    except ChildProcessError:
        pass
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, not ours
        return True
    return True


def _read_pid(pidfile: Path) -> int | None:
    try:
        text = pidfile.read_text(encoding="utf-8").strip()
    except OSError:
        return None
    return int(text) if text.isdigit() else None


def load_fleet(root: str | Path) -> dict[str, Any]:
    """The ``fleet.json`` record of the fleet launched under ``root``."""
    path = fleet_paths(root) / _FLEET_FILE
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise StateError(
            f"no fleet is recorded under {path.parent} — "
            "run 'cluster serve up' first"
        )
    return json.loads(text)


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
    accepting) or ``timeout`` seconds pass — on timeout the stragglers
    are killed and the launch fails whole, pointing at the dead
    worker's log.
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
    template_json = json.dumps(
        template.to_dict(), sort_keys=True, allow_nan=False
    )
    workers: list[dict[str, Any]] = []
    launched: list[subprocess.Popen[bytes]] = []
    try:
        for node_id in range(n_nodes):
            sock_path, pid_path, log_path = _worker_paths(base, node_id)
            for stale in (sock_path, pid_path):
                stale.unlink(missing_ok=True)
            command = [
                sys.executable,
                "-m",
                "repro.cluster.worker",
                "--listen",
                str(sock_path),
                "--pidfile",
                str(pid_path),
                "--node-id",
                str(node_id),
                "--template-json",
                template_json,
                "--seed",
                str(node_seed(seed, node_id)),
                "--buffer-limit",
                str(buffer_limit),
            ]
            if not track_truth:
                command.append("--no-track-truth")
            with open(log_path, "ab") as log:
                process = subprocess.Popen(
                    command,
                    stdin=subprocess.DEVNULL,
                    stdout=log,
                    stderr=log,
                    env=worker_environment(),
                    start_new_session=True,
                )
            launched.append(process)
            workers.append(
                {
                    "node": node_id,
                    "pid": process.pid,
                    "socket": str(sock_path),
                    "pidfile": str(pid_path),
                    "log": str(log_path),
                }
            )
        deadline = time.monotonic() + timeout
        for record in workers:
            pid_path = Path(record["pidfile"])
            while not pid_path.exists():
                if time.monotonic() > deadline:
                    raise StateError(
                        f"worker for node {record['node']} did not "
                        f"become ready within {timeout:g}s — see "
                        f"{record['log']}"
                    )
                time.sleep(_POLL_S)
    except BaseException:
        for process in launched:
            process.kill()
            process.wait()
        for record in workers:
            Path(record["pidfile"]).unlink(missing_ok=True)
            Path(record["socket"]).unlink(missing_ok=True)
        raise
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


def _connect(record: dict[str, Any], timeout: float) -> FrameStream:
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(timeout)
    try:
        sock.connect(record["socket"])
    except OSError:
        sock.close()
        raise
    stream = FrameStream.from_socket(sock)
    sock.close()  # the stream's file objects keep the fd alive
    return stream


def fleet_status(
    root: str | Path, timeout: float = 5.0
) -> list[dict[str, Any]]:
    """One row per worker, filled by a live ``ping`` over its socket."""
    fleet = load_fleet(root)
    rows = []
    for record in fleet["workers"]:
        row: dict[str, Any] = {"node": record["node"]}
        try:
            stream = _connect(record, timeout)
        except OSError as exc:
            row.update(state="unreachable", error=str(exc))
            rows.append(row)
            continue
        try:
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
        finally:
            stream.close()
        rows.append(row)
    return rows


def fleet_down(
    root: str | Path, timeout: float = 10.0
) -> list[dict[str, Any]]:
    """Stop every worker and forget the fleet; returns outcome rows.

    Per worker: protocol shutdown first (the worker unlinks its own
    socket and pidfile), then ``SIGTERM``, then ``SIGKILL`` — each
    escalation only after the previous one failed to end the process
    within its share of ``timeout``.  Always removes ``fleet.json``.
    """
    base = fleet_paths(root)
    fleet = load_fleet(root)
    rows = []
    for record in fleet["workers"]:
        node_id = record["node"]
        pid = _read_pid(Path(record["pidfile"])) or record["pid"]
        if not _pid_alive(pid):
            outcome = "already stopped"
        else:
            outcome = _stop_worker(record, pid, timeout)
        Path(record["socket"]).unlink(missing_ok=True)
        Path(record["pidfile"]).unlink(missing_ok=True)
        rows.append({"node": node_id, "pid": pid, "state": outcome})
    (base / _FLEET_FILE).unlink(missing_ok=True)
    return rows


def _stop_worker(
    record: dict[str, Any], pid: int, timeout: float
) -> str:
    """Protocol shutdown → SIGTERM → SIGKILL; returns how it ended."""
    share = max(timeout / 2, _POLL_S)
    try:
        stream = _connect(record, share)
        try:
            stream.send("shutdown")
            stream.expect("bye")
        finally:
            stream.close()
    except (StateError, OSError):
        pass
    else:
        if _wait_dead(pid, share):
            return "stopped"
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
# the fleet's serving face: query API over live workers
# ----------------------------------------------------------------------
class FleetReader(ClusterReader):
    """The :class:`~repro.cluster.query.ClusterReader` API over a fleet.

    Same queries (``get`` / ``top_k`` / ``view`` / ``subscribe``), same
    entities, same consistency knob — answered over the wire protocol
    against the live worker daemons instead of in-process objects:

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

    def __init__(self, root: str | Path, timeout: float = 5.0) -> None:
        fleet = load_fleet(root)
        self._fleet = fleet
        self._timeout = timeout
        # No aggregator/gossip behind this reader — the wire protocol
        # is the backend — so ClusterReader.__init__ is skipped and the
        # shared cache/default fields are set directly.
        self._gossip = None
        self._nodes = None
        self._simulation = None
        self._consistency = None
        self._replica = None
        self._fanout = 2
        self._gossip_every = None
        self._registry = MetricsRegistry()
        self._cache = {}
        self.cache_hits = 0
        self.cache_misses = 0

    @property
    def replicas(self) -> tuple[int, ...]:
        """The fleet's worker node ids."""
        return tuple(
            record["node"] for record in self._fleet["workers"]
        )

    def _resolve_consistency(self, consistency: str | None) -> str:
        if consistency is None:
            consistency = self._consistency
        if consistency is None:
            consistency = "replica"
        return super()._resolve_consistency(consistency)

    def _refuse_replica(self, replica: int | None) -> None:
        if replica is not None:
            raise ParameterError(
                "fleet reads fold every worker (workers shard the "
                "keyspace, they are not replicas of each other); "
                "replica= selection applies to gossip clusters"
            )

    def _stamp_of(
        self, pings: list[dict[str, Any]]
    ) -> tuple[tuple[int, int, int], ...]:
        return tuple(
            (pong["node"], pong["events_ingested"], pong["pending"])
            for pong in sorted(pings, key=lambda p: p["node"])
        )

    def _ping_sweep(self) -> list[dict[str, Any]]:
        pings = []
        for record in self._fleet["workers"]:
            stream = _connect(record, self._timeout)
            try:
                pings.append(stream.request("ping", "pong"))
            finally:
                stream.close()
        return pings

    def _pull(
        self, flush: bool
    ) -> tuple[list[Any], list[dict[str, Any]]]:
        """Snapshot every worker (optionally flushing), then ping it on
        the same connection so the stamp reflects the pulled state."""
        banks = []
        pings = []
        for record in self._fleet["workers"]:
            stream = _connect(record, self._timeout)
            try:
                reply = stream.request(
                    "snapshot_request", "snapshot_reply", flush=flush
                )
                pings.append(stream.request("ping", "pong"))
            finally:
                stream.close()
            banks.append(BankCheckpoint.decode(reply["line"]).restore())
        return banks, pings

    def _fold(self, banks: list[Any]) -> GlobalView:
        # Pulled banks are fresh objects with fresh stamps, so a memo
        # could never hit: each fold gets an empty one.
        return fold_banks(
            [(bank.counters, bank.stamps, bank.truths) for bank in banks],
            2,
            0,
            FoldMemo(),
        )

    def raw_view(
        self,
        consistency: str | None = None,
        replica: int | None = None,
    ) -> GlobalView:
        consistency = self._resolve_consistency(consistency)
        self._refuse_replica(replica)
        view_key = (consistency, None)
        stamp = self._stamp_of(self._ping_sweep())
        cached = self._cache.get(view_key)
        if cached is not None and cached[0] == stamp:
            self._note_cache(hit=True)
            return cached[1]
        banks, pings = self._pull(flush=consistency == "consistent")
        view = self._fold(banks)
        self._cache[view_key] = (self._stamp_of(pings), view)
        self._note_cache(hit=False)
        return view

    def staleness(
        self,
        consistency: str | None = None,
        replica: int | None = None,
    ) -> StalenessInfo:
        consistency = self._resolve_consistency(consistency)
        self._refuse_replica(replica)
        bound = self._fleet["buffer_limit"] * self._fleet["n_nodes"]
        lag = 0
        if consistency == "replica":
            lag = sum(
                pong["pending"] for pong in self._ping_sweep()
            )
        return StalenessInfo(
            consistency=consistency,
            replica=None,
            lag_events=lag,
            bound_events=bound,
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
    record_path, _, _ = _query_paths(root)
    try:
        text = record_path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise StateError(
            f"no query daemon is recorded under {record_path.parent} — "
            "run 'cluster serve query up' first"
        )
    return json.loads(text)


def query_up(
    root: str | Path,
    host: str = "127.0.0.1",
    port: int = 0,
    timeout: float = 10.0,
) -> dict[str, Any]:
    """Launch the HTTP query daemon against the recorded fleet.

    Blocks until the daemon writes its ``query.json`` record (socket
    bound, port chosen — the record-after-bind readiness marker) or
    ``timeout`` passes, in which case the straggler is killed and the
    launch fails pointing at the log.  Returns the record.
    """
    load_fleet(root)  # loud when there is no fleet to serve
    record_path, pid_path, log_path = _query_paths(root)
    if record_path.exists():
        raise StateError(
            f"a query daemon is already recorded in {record_path} — "
            "run 'cluster serve query down' before launching another"
        )
    pid_path.unlink(missing_ok=True)
    command = [
        sys.executable,
        "-m",
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
    ]
    with open(log_path, "ab") as log:
        process = subprocess.Popen(
            command,
            stdin=subprocess.DEVNULL,
            stdout=log,
            stderr=log,
            env=worker_environment(),
            start_new_session=True,
        )
    deadline = time.monotonic() + timeout
    while not record_path.exists():
        if process.poll() is not None or time.monotonic() > deadline:
            process.kill()
            process.wait()
            pid_path.unlink(missing_ok=True)
            raise StateError(
                f"query daemon did not become ready within "
                f"{timeout:g}s — see {log_path}"
            )
        time.sleep(_POLL_S)
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
    share = max(timeout / 2, _POLL_S)
    if not _pid_alive(pid):
        outcome = "already stopped"
    else:
        outcome = "killed"
        for sig, name in (
            (signal.SIGTERM, "terminated"),
            (signal.SIGKILL, "killed"),
        ):
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                outcome = "stopped"
                break
            if _wait_dead(pid, share):
                outcome = name
                break
    record_path.unlink(missing_ok=True)
    pid_path.unlink(missing_ok=True)
    return {"pid": pid, "state": outcome}
