"""The measured phases of a benchmark run, as interleavable tasks.

Each task is a generator that does one unit of measurement per step
and yields its progress (a fraction, done at 1).  :func:`interleave`
always advances the least-advanced task, so every measurement spreads
over the whole run instead of one stretch of it; on a shared host whose
speed drifts over seconds, this is what keeps one run's figures
comparable with the next run's.

* :func:`setup_task` -- fresh interpreters, from spawn to ready-to-ingest;
* :func:`ingest_task` -- fresh-cluster ``run()`` trials (and
  ``recover_cluster`` after each, on the durable workload);
* :func:`serve_task` -- serving sessions: ingest slices through
  ``run()``, each followed by one replica and one consistent read from
  a closed-loop client over one keep-alive HTTP connection;
* :func:`read_probe_task` -- the same reads of a finished cluster;
* :func:`recover_task` -- ``recover_cluster`` on copies of one closed
  ``FileStore`` directory.

Every task feeds the correctness gate.  With a tracer, a task
alternates untraced and traced trials so the traced run can report its
own overhead; the tracer records only inside timed sections.
"""

from __future__ import annotations

import gc
import http.client
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

import ledger
from gate import Gate
from workloads import HOT_KEYS, SLICE_EVENTS, SLICES, Stream, Workload

HERE = Path(__file__).resolve().parent
#: Fewest ingest trials a run makes, however short ``seconds``.
MIN_TRIALS = 3
SETUP_SPAWNS = 5
RECOVER_COPIES = 15
#: Extra recoveries, each of a copy of the trial's directory, after
#: every durable ingest trial of an untraced run.  With the recovery of
#: the directory itself and the three trials of a short run, that is 24
#: samples of ``recover_s``, spread over the run by yielding after each.
TRIAL_RECOVER_COPIES = 7

Task = Iterator[float]


def interleave(tasks: list[Task]) -> None:
    """Step the least-advanced task until every task has finished."""
    progress = {task: 0.0 for task in tasks}
    try:
        while progress:
            task = min(progress, key=progress.__getitem__)
            try:
                progress[task] = next(task)
            except StopIteration:
                del progress[task]
    finally:
        for task in tasks:
            task.close()


def settle() -> None:
    """Collect, then freeze the survivors out of later collections, so
    each timed trial starts from the same heap state."""
    gc.collect()
    gc.freeze()


class Timed:
    """Accumulates the wall time of timed sections; the tracer (if any)
    records only inside them."""

    def __init__(self, tracer: ledger.Tracer | None) -> None:
        self.tracer = tracer
        self.wall = 0.0

    @contextmanager
    def section(self, span: str | None = None) -> Iterator[None]:
        tracer = self.tracer
        if tracer is not None:
            tracer.active = True
        started = time.perf_counter()
        try:
            with tracer.span(span) if tracer and span else nullcontext():
                yield
        finally:
            self.wall += time.perf_counter() - started
            if tracer is not None:
                tracer.active = False


@dataclass
class TraceLog:
    """Traced and untraced trial walls plus each traced trial's ledger."""

    untraced_walls: list[float] = field(default_factory=list)
    traced_walls: list[float] = field(default_factory=list)
    ledgers: list[dict[str, float]] = field(default_factory=list)
    last_spans: list[list] = field(default_factory=list)

    def trial(self, tracer: ledger.Tracer | None, index: int) -> Timed:
        """A fresh timer; with a tracer, odd trials record spans."""
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.reset()
        return Timed(tracer if traced else None)

    def finish(self, timed: Timed, extra: dict[str, float]) -> None:
        tracer = timed.tracer
        if tracer is None:
            self.untraced_walls.append(timed.wall)
            return
        self.traced_walls.append(timed.wall)
        entry = ledger.trial_ledger(
            tracer.spans, tracer.counts, threading.get_ident(), timed.wall
        )
        entry.update(extra)
        self.ledgers.append(entry)
        self.last_spans = tracer.spans

    def metrics(self) -> dict[str, float]:
        result = {
            name: statistics.median(entry[name] for entry in self.ledgers)
            for name in self.ledgers[0]
        }
        result["trace.overhead_ratio"] = statistics.median(
            self.traced_walls
        ) / statistics.median(self.untraced_walls)
        return result


def _trial_timer(trace_log: TraceLog | None, tracer: ledger.Tracer | None, index: int) -> Timed:
    return trace_log.trial(tracer, index) if trace_log is not None else Timed(None)


def _fingerprint(view: Any) -> Any:
    from repro.cluster import view_fingerprint

    return view_fingerprint(view)


def _rng_bits(sim: Any) -> int:
    return sum(
        counter.rng.bits_consumed
        for node in sim.nodes
        for _, counter in node.bank.items()
    )


def _check_recovered(gate: Gate, recovered: Any, fingerprint: Any, label: str) -> None:
    """Gate a recovered cluster's view on the fingerprint taken before
    close, then close it."""
    try:
        gate.check_equal(
            _fingerprint(recovered.aggregator.global_view()),
            fingerprint,
            f"{label}: recovered view differs from the view before close",
        )
    finally:
        recovered.close()


def _checkpoint_randomized(sim: Any) -> None:
    """Checkpoint every node holding a counter that has drawn random
    bits.  Recovery replays a node's WAL tail on the new incarnation's
    random streams, so only a node whose counters are all still in
    their deterministic phase is sure to replay to the view it closed
    with; the other nodes' tails stay for recovery to replay."""
    for node in sim.nodes:
        if any(counter.rng.bits_consumed for _, counter in node.bank.items()):
            sim.checkpoint_node(node.node_id)


@dataclass
class Quality:
    """Deterministic outputs of a run's first trial."""

    bits_per_key: float
    eps_outside_share: float


def check_view(
    gate: Gate, view: Any, stream: Stream, label: str, first: Any
) -> tuple[Any, Quality | None]:
    """Truth and determinism checks on one trial's final view.  Returns
    its fingerprint, and for the first trial (``first`` is ``None``)
    the quality figures, after the epsilon check."""
    gate.check_truth(view.truth, stream.totals, stream.event_counts, label)
    fingerprint = _fingerprint(view)
    if first is not None:
        gate.check_equal(fingerprint, first, f"{label}: view differs from the first trial's")
        return fingerprint, None
    share = gate.check_epsilon(fingerprint[0], stream.totals, label)
    return fingerprint, Quality(view.total_state_bits() / view.n_keys, share)


# ----------------------------------------------------------------------
# setup
# ----------------------------------------------------------------------
def setup_task(workload: Workload, tmp: Path, out: list[float]) -> Task:
    """Seconds from spawning a fresh interpreter until it reports the
    workload's cluster ready to ingest (and, for a serving workload,
    its HTTP server answering ``/healthz``)."""
    for index in range(SETUP_SPAWNS):
        storage = tmp / f"setup-{index}"
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "setup_child.py"), workload.name, str(storage)],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - started
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"setup child failed (exit {code}, said {line!r})")
        out.append(elapsed)
        shutil.rmtree(storage, ignore_errors=True)
        yield (index + 1) / SETUP_SPAWNS


# ----------------------------------------------------------------------
# ingest
# ----------------------------------------------------------------------
@dataclass
class RunTotals:
    """Input events and wall time summed over ``run()`` calls."""

    calls: int = 0
    events: int = 0
    seconds: float = 0.0

    def add(self, events: int, seconds: float) -> None:
        self.calls += 1
        self.events += events
        self.seconds += seconds

    @property
    def events_per_s(self) -> float:
        return self.events / self.seconds


@dataclass
class IngestResult:
    runs: RunTotals = field(default_factory=RunTotals)
    recover_s: list[float] = field(default_factory=list)
    quality: Quality | None = None


def ingest_task(
    workload: Workload,
    stream: Stream,
    seconds: float,
    gate: Gate,
    tmp: Path,
    out: IngestResult,
    tracer: ledger.Tracer | None = None,
    trace_log: TraceLog | None = None,
) -> Task:
    """Trials until ``seconds`` of them are measured (at least
    ``MIN_TRIALS``); each is a fresh cluster running ``run()`` once."""
    from repro.cluster import ClusterSimulation, recover_cluster

    first = None
    measured = 0.0
    progress = 0.0
    index = 0
    while True:
        label = f"{workload.name} trial {index}"
        storage = tmp / f"trial-{index}"
        timed = _trial_timer(trace_log, tracer, index)
        sim = ClusterSimulation(workload.cluster_config(str(storage)))
        settle()
        try:
            with timed.section():
                sim.run(stream.events)
            run_s = timed.wall
            view = sim.aggregator.global_view()
            bits = _rng_bits(sim) if timed.tracer is not None else 0
            if workload.durable:
                _checkpoint_randomized(sim)
        finally:
            sim.close()
        fingerprint, quality = check_view(gate, view, stream, label, first)
        if first is None:
            first, out.quality = fingerprint, quality
        copies = []
        if workload.durable:
            n_copies = TRIAL_RECOVER_COPIES if trace_log is None else 0
            copies = [tmp / f"trial-{index}-copy-{n}" for n in range(n_copies)]
            for copy in copies:
                shutil.copytree(storage, copy)
            settle()
            with timed.section("recover"):
                recovered = recover_cluster(str(storage))
            out.recover_s.append(timed.wall - run_s)
            _check_recovered(gate, recovered, fingerprint, label)
        shutil.rmtree(storage, ignore_errors=True)
        out.runs.add(len(stream.events), run_s)
        if trace_log is not None:
            trace_log.finish(timed, {"rng.bits_consumed": bits})
        measured += timed.wall
        index += 1
        done = progress
        progress = min(measured / seconds if seconds > 0 else 1.0, index / MIN_TRIALS)
        for number, copy in enumerate(copies, start=1):
            # Between copies the other tasks take their turns, so the
            # samples spread over the stretch up to the next trial.
            yield done + (progress - done) * number / (len(copies) + 1)
            settle()
            started = time.perf_counter()
            recovered = recover_cluster(str(copy))
            out.recover_s.append(time.perf_counter() - started)
            _check_recovered(gate, recovered, fingerprint, f"{label} {copy.name}")
            shutil.rmtree(copy, ignore_errors=True)
        if progress >= 1.0:
            return
        yield progress


# ----------------------------------------------------------------------
# serving
# ----------------------------------------------------------------------
def _get(conn: http.client.HTTPConnection, path: str) -> tuple[int, bytes]:
    conn.request("GET", path)
    response = conn.getresponse()
    return response.status, response.read()


class ReadClient:
    """One closed-loop client on one keep-alive HTTP connection to a
    served ``ClusterReader``.  Every reply is checked against that
    reader's in-process answer at the same consistency."""

    def __init__(self, reader: Any, gate: Gate, out: dict[str, list[float]]) -> None:
        from repro.cluster.httpd import ClusterHTTPServer

        self.reader = reader
        self.gate = gate
        self.samples_ms = out
        self.server = ClusterHTTPServer(reader).start()
        self.conn = http.client.HTTPConnection("127.0.0.1", self.server.port, timeout=60)
        #: Cache hits of the in-process checks, kept out of the hit ratio.
        self._check_hits = 0

    def ping(self) -> None:
        status, body = _get(self.conn, "/healthz")
        if status != 200:
            raise RuntimeError(f"/healthz answered {status}: {body!r}")

    def read(self, key: str, consistency: str, timed: Timed, label: str) -> None:
        before = timed.wall
        with timed.section("http.client"):
            status, body = _get(self.conn, f"/v1/keys/{key}?consistency={consistency}")
        self.samples_ms[consistency].append((timed.wall - before) * 1000.0)
        hits = self.reader.cache_hits
        answer = self.reader.get(key, consistency).to_payload()
        self._check_hits += self.reader.cache_hits - hits
        self.gate.check_reply(status, body, answer, f"{label}: {consistency} read of {key}")

    def hit_ratio(self) -> float:
        hits = self.reader.cache_hits - self._check_hits
        lookups = hits + self.reader.cache_misses
        return hits / lookups if lookups else 0.0

    def close(self) -> None:
        self.conn.close()
        self.server.close()


def new_reads() -> dict[str, list[float]]:
    return {"replica": [], "consistent": []}


@dataclass
class ServeResult:
    reads_ms: dict[str, list[float]] = field(default_factory=new_reads)
    runs: RunTotals = field(default_factory=RunTotals)
    quality: Quality | None = None


def serve_task(
    workload: Workload,
    stream: Stream,
    seconds: float,
    gate: Gate,
    out: ServeResult,
    min_sessions: int = 1,
    tracer: ledger.Tracer | None = None,
    trace_log: TraceLog | None = None,
) -> Task:
    """Serving sessions until ``seconds`` of them are measured (at least
    ``min_sessions``); steps one slice at a time."""
    from repro.cluster import ClusterReader, ClusterSimulation

    first = None
    slices = [
        stream.events[i * SLICE_EVENTS:(i + 1) * SLICE_EVENTS] for i in range(SLICES)
    ]
    measured = 0.0
    index = 0
    while True:
        label = f"{workload.name} session {index}"
        timed = _trial_timer(trace_log, tracer, index)
        sim = ClusterSimulation(workload.cluster_config())
        client = ReadClient(ClusterReader.from_simulation(sim), gate, out.reads_ms)
        settle()
        try:
            for number, events in enumerate(slices):
                before = timed.wall
                with timed.section():
                    sim.run(events)
                out.runs.add(len(events), timed.wall - before)
                # Unmeasured: each measured read then follows another
                # request on the connection, so every sample meets the
                # same TCP delayed-ACK state (see README.md).
                client.ping()
                key = HOT_KEYS[number % len(HOT_KEYS)]
                for consistency in ("replica", "consistent"):
                    client.read(key, consistency, timed, f"{label} slice {number}")
                slices_done = index * SLICES + number + 1
                yield min(
                    slices_done / (min_sessions * SLICES),
                    (measured + timed.wall) / seconds if seconds > 0 else 1.0,
                )
            hit_ratio = client.hit_ratio()
            view = sim.aggregator.global_view()
            bits = _rng_bits(sim) if timed.tracer is not None else 0
        finally:
            client.close()
            sim.close()
        fingerprint, quality = check_view(gate, view, stream, label, first)
        if first is None:
            first, out.quality = fingerprint, quality
        if trace_log is not None:
            trace_log.finish(
                timed, {"rng.bits_consumed": bits, "reader.cache_hit_ratio": hit_ratio}
            )
        measured += timed.wall
        index += 1
        progress = min(measured / seconds if seconds > 0 else 1.0, index / min_sessions)
        if progress >= 1.0:
            return
        yield progress


def read_probe_task(
    workload: Workload, stream: Stream, gate: Gate, out: dict[str, list[float]]
) -> Task:
    """Reads of a finished cluster, for workloads without a serving
    phase.  The reader's cache is dropped before each read, so every
    read pays its fold, as after new ingest in a serving session."""
    from repro.cluster import ClusterReader, ClusterSimulation

    label = f"{workload.name} read probe"
    sim = ClusterSimulation(workload.cluster_config())
    try:
        sim.run(stream.events)
        gate.check_truth(sim.aggregator.global_view().truth, stream.totals,
                         stream.event_counts, label)
        client = ReadClient(ClusterReader.from_simulation(sim), gate, out)
        try:
            client.ping()
            timed = Timed(None)
            for number in range(SLICES):
                key = HOT_KEYS[number % len(HOT_KEYS)]
                for consistency in ("replica", "consistent"):
                    client.reader.invalidate()
                    client.read(key, consistency, timed, f"{label} {number}")
                yield (number + 1) / SLICES
        finally:
            client.close()
    finally:
        sim.close()


# ----------------------------------------------------------------------
# recovery probe
# ----------------------------------------------------------------------
def recover_task(
    workload: Workload, stream: Stream, gate: Gate, tmp: Path, out: list[float]
) -> Task:
    """Ingest, checkpoint every node, close, then time ``recover_cluster``
    on copies of the directory.  Checkpointing first makes the recovered
    view exactly the closed one on every template."""
    from repro.cluster import ClusterSimulation, recover_cluster

    label = f"{workload.name} recovery probe"
    original = tmp / "recover-probe"
    sim = ClusterSimulation(workload.cluster_config(str(original)))
    try:
        sim.run(stream.events)
        for node in sim.nodes:
            sim.checkpoint_node(node.node_id)
        view = sim.aggregator.global_view()
    finally:
        sim.close()
    gate.check_truth(view.truth, stream.totals, stream.event_counts, label)
    fingerprint = _fingerprint(view)
    for index in range(RECOVER_COPIES):
        copy = tmp / f"recover-copy-{index}"
        shutil.copytree(original, copy)
        started = time.perf_counter()
        recovered = recover_cluster(str(copy))
        out.append(time.perf_counter() - started)
        _check_recovered(gate, recovered, fingerprint, f"{label} copy {index}")
        shutil.rmtree(copy, ignore_errors=True)
        yield (index + 1) / RECOVER_COPIES
    shutil.rmtree(original, ignore_errors=True)
