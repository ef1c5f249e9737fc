"""Command-line interface: run any experiment from the shell.

Usage::

    python -m repro.cli figure1 --trials 1000
    python -m repro.cli appendix-a
    python -m repro.cli space --sweep delta
    python -m repro.cli floor
    python -m repro.cli lowerbound --t 4096
    python -m repro.cli merge --family morris
    python -m repro.cli tradeoff
    python -m repro.cli throughput
    python -m repro.cli cluster --nodes 4 --events 1000000 --kill 2@500000
    python -m repro.cli cluster --routing ring --grow 300000 \\
        --shrink 1@600000 --window-every 250000 --retain 3
    python -m repro.cli cluster --storage file --storage-dir /tmp/cluster \\
        --wal-segment 4096
    python -m repro.cli cluster --workers 4 --batch 64 --storage file \\
        --storage-dir /tmp/cluster --wal-fsync 8
    python -m repro.cli cluster --aggregation gossip --gossip-fanout 2 \\
        --gossip-every 25000
    python -m repro.cli cluster --aggregation gossip --membership \\
        --kill-dead 2@500000 --suspect-after 2 --membership-heal auto
    python -m repro.cli cluster --plan process --nodes 4 \\
        --events 1000000 --kill 2@500000
    python -m repro.cli cluster --aggregation gossip --serve-http 8080
    python -m repro.cli cluster serve up --dir /tmp/cluster --nodes 2
    python -m repro.cli cluster serve ps --dir /tmp/cluster
    python -m repro.cli cluster serve status --dir /tmp/cluster
    python -m repro.cli cluster serve query up --dir /tmp/cluster
    python -m repro.cli cluster serve query status --dir /tmp/cluster
    python -m repro.cli cluster serve query down --dir /tmp/cluster
    python -m repro.cli cluster serve down --dir /tmp/cluster
    python -m repro.cli count --algorithm nelson_yu --n 1000000

Every subcommand prints the same tables the benchmark suite writes to
``benchmarks/results/``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from repro.core.factory import make_counter
from repro.experiments.appendix_a import AppendixAConfig, run_appendix_a
from repro.experiments.config import ExperimentContext
from repro.experiments.figure1 import Figure1Config, run_figure1
from repro.experiments.flajolet_floor import FloorConfig, run_flajolet_floor
from repro.experiments.lower_bound_exp import (
    LowerBoundConfig,
    run_lower_bound,
    run_survival_threshold,
)
from repro.experiments.merge_exp import (
    MergeConfig,
    run_morris_merge,
    run_nelson_yu_merge,
    run_simplified_merge,
)
from repro.experiments.space_scaling import (
    DeltaSweepConfig,
    FailureCheckConfig,
    NSweepConfig,
    run_delta_sweep,
    run_failure_check,
    run_n_sweep,
)
from repro.experiments.throughput import ThroughputConfig, run_throughput
from repro.experiments.tradeoff import TradeoffConfig, run_tradeoff

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of Nelson & Yu, 'Optimal bounds for approximate "
            "counting' — experiment runner"
        ),
    )
    parser.add_argument(
        "--seed", type=int, default=2020_10_06, help="experiment seed"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    figure1 = subparsers.add_parser(
        "figure1", help="E1: Figure 1 error CDFs at 17 bits"
    )
    figure1.add_argument("--trials", type=int, default=1000)
    figure1.add_argument("--bits", type=int, default=17)

    subparsers.add_parser(
        "appendix-a", help="E2: Morris+ tweak necessity (exact DP)"
    )

    space = subparsers.add_parser(
        "space", help="E3/E4: space and failure scaling"
    )
    space.add_argument(
        "--sweep",
        choices=("delta", "n", "failure"),
        default="delta",
        help="which sweep to run",
    )
    space.add_argument("--trials", type=int, default=20)

    subparsers.add_parser(
        "floor", help="E5: Morris(a=1) constant failure floor"
    )

    lowerbound = subparsers.add_parser(
        "lowerbound", help="E6: Theorem 3.1 derandomize-and-pump"
    )
    lowerbound.add_argument("--t", type=int, default=4096)

    merge = subparsers.add_parser("merge", help="E7: merge validation")
    merge.add_argument(
        "--family",
        choices=("morris", "simplified", "nelson-yu"),
        default="morris",
    )
    merge.add_argument("--trials", type=int, default=1500)

    tradeoff = subparsers.add_parser(
        "tradeoff", help="E8: accuracy vs bits"
    )
    tradeoff.add_argument("--trials", type=int, default=150)

    subparsers.add_parser("throughput", help="E9: update throughput")

    bank = subparsers.add_parser(
        "bank", help="E10: M-counter bank, delta << 1/M"
    )
    bank.add_argument("--counters", type=int, default=500)

    subparsers.add_parser(
        "randomness", help="E11: random-bit budgets"
    )

    ablation = subparsers.add_parser(
        "ablation", help="A1-A3: design-choice ablations"
    )
    ablation.add_argument(
        "--which",
        choices=("chernoff", "rounding", "transition"),
        default="transition",
    )
    ablation.add_argument("--trials", type=int, default=400)

    cluster = subparsers.add_parser(
        "cluster", help="simulate the distributed counting cluster"
    )
    cluster.add_argument("--nodes", type=int, default=4)
    cluster.add_argument("--events", type=int, default=200_000)
    cluster.add_argument("--keys", type=int, default=2000)
    cluster.add_argument("--exponent", type=float, default=1.1)
    cluster.add_argument(
        "--algorithm",
        choices=(
            "exact",
            "morris",
            "morris_plus",
            "simplified_ny",
            "nelson_yu",
        ),
        default="simplified_ny",
        help="mergeable counter preset for every node",
    )
    cluster.add_argument("--buffer", type=int, default=512)
    cluster.add_argument("--checkpoint-every", type=int, default=50_000)
    cluster.add_argument(
        "--hot-threshold",
        type=int,
        default=None,
        help="split keys across nodes once they reach this many events",
    )
    cluster.add_argument(
        "--kill",
        action="append",
        default=[],
        metavar="NODE@EVENT",
        help="crash NODE at stream position EVENT (repeatable)",
    )
    cluster.add_argument(
        "--routing",
        choices=("hash", "ring"),
        default="hash",
        help=(
            "placement strategy: salted stable hash (full reshuffle per "
            "resize) or consistent hash ring (minimal key movement)"
        ),
    )
    cluster.add_argument(
        "--ring-points",
        type=int,
        default=64,
        help="virtual nodes per physical node for --routing ring",
    )
    cluster.add_argument(
        "--grow",
        action="append",
        default=[],
        metavar="EVENT",
        type=int,
        help="add one ingest node at stream position EVENT (repeatable)",
    )
    cluster.add_argument(
        "--shrink",
        action="append",
        default=[],
        metavar="NODE@EVENT",
        help=(
            "drain and remove node NODE at stream position EVENT "
            "(repeatable)"
        ),
    )
    cluster.add_argument(
        "--window-every",
        type=int,
        default=None,
        metavar="EVENTS",
        help="tumbling retention: collapse a window every EVENTS events",
    )
    cluster.add_argument(
        "--retain",
        type=int,
        default=None,
        metavar="WINDOWS",
        help=(
            "retain only the last WINDOWS collapsed windows "
            "(default: keep all; requires --window-every)"
        ),
    )
    cluster.add_argument(
        "--storage",
        choices=("memory", "file"),
        default="memory",
        help=(
            "durability backend: in-process (memory) or persisted "
            "checkpoints + write-ahead log under --storage-dir (file)"
        ),
    )
    cluster.add_argument(
        "--storage-dir",
        default=None,
        metavar="DIR",
        help=(
            "cluster storage directory for --storage file; a finished "
            "run can be re-opened with repro.cluster.recover_cluster"
        ),
    )
    cluster.add_argument(
        "--wal-segment",
        type=int,
        default=None,
        metavar="EVENTS",
        help=(
            "roll write-ahead-log segments every EVENTS events; a "
            "filled segment forces a fence checkpoint, bounding the "
            "retained log even with --checkpoint-every 0"
        ),
    )
    cluster.add_argument(
        "--storage-overwrite",
        action="store_true",
        help=(
            "allow --storage file to discard a cluster already "
            "persisted in --storage-dir (refused by default)"
        ),
    )
    cluster.add_argument(
        "--workers",
        type=int,
        default=1,
        help=(
            "ingest worker threads; 1 (default) keeps the serial event "
            "loop, more shard delivery per owning node — results are "
            "bit-identical either way"
        ),
    )
    cluster.add_argument(
        "--batch",
        type=int,
        default=64,
        metavar="EVENTS",
        help="routed events per node delivery batch (every plan)",
    )
    cluster.add_argument(
        "--wal-fsync",
        type=int,
        default=None,
        metavar="EVENTS",
        help=(
            "group-commit cadence: fsync a node's write-ahead log every "
            "EVENTS appends (requires --storage file)"
        ),
    )
    from repro.cluster.pipeline import PLAN_NAMES

    cluster.add_argument(
        "--plan",
        choices=("auto", *PLAN_NAMES),
        default="auto",
        help=(
            "execution plan: the serial reference loop, thread-sharded "
            "delivery (parallel), or one OS process per node behind the "
            "checksummed wire protocol (process); auto (default) picks "
            "serial or parallel from --workers — results are "
            "bit-identical across plans"
        ),
    )

    cluster.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help=(
            "write the end-of-run telemetry snapshot to PATH: "
            "Prometheus text exposition when PATH ends in .prom, "
            "strict JSON otherwise"
        ),
    )
    cluster.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help=(
            "stream the structured lifecycle trace (event_delivered, "
            "checkpoint_fence, wal_fsync, migration, gossip_round, "
            "crash, recover, ...) to PATH as JSON lines"
        ),
    )
    cluster.add_argument(
        "--no-telemetry",
        action="store_true",
        help=(
            "disable the wall-clock telemetry layers (stage timers, "
            "duration histograms, traces); deterministic counters "
            "still run — results are bit-identical either way"
        ),
    )

    cluster.add_argument(
        "--aggregation",
        choices=("tree", "gossip"),
        default="tree",
        help=(
            "read path: central merge tree (tree) or per-node "
            "epoch-stamped digests exchanged in seeded push-pull "
            "rounds (gossip) — decentralized reads that converge to "
            "the exact central answer"
        ),
    )
    cluster.add_argument(
        "--gossip-fanout",
        type=int,
        default=1,
        metavar="PEERS",
        help="peers each node exchanges digests with per gossip round",
    )
    cluster.add_argument(
        "--gossip-every",
        type=int,
        default=None,
        metavar="EVENTS",
        help=(
            "run a gossip round every EVENTS delivered events "
            "(default with --aggregation gossip: events/8)"
        ),
    )
    cluster.add_argument(
        "--membership",
        action="store_true",
        help=(
            "self-healing membership on top of --aggregation gossip: "
            "nodes suspect peers whose digests go stale, confirm "
            "failures by quorum vote, and the cluster heals "
            "--kill-dead nodes on its own (lossless: same exact "
            "answer as a driver-healed run)"
        ),
    )
    cluster.add_argument(
        "--kill-dead",
        action="append",
        default=[],
        metavar="NODE@EVENT",
        help=(
            "crash NODE at EVENT and leave it down until the "
            "membership layer detects and heals it (repeatable; "
            "requires --membership)"
        ),
    )
    cluster.add_argument(
        "--suspect-after",
        type=int,
        default=2,
        metavar="ROUNDS",
        help=(
            "gossip rounds a node's digest entry may go without a "
            "refresh before peers suspect it (default 2)"
        ),
    )
    cluster.add_argument(
        "--membership-quorum",
        type=int,
        default=None,
        metavar="VOTES",
        help=(
            "suspicion votes needed to confirm a failure (default: "
            "every live node, the n-f bound that makes false "
            "positives impossible)"
        ),
    )
    cluster.add_argument(
        "--membership-heal",
        choices=("auto", "recover", "rebalance"),
        default="auto",
        help=(
            "what a confirmed failure triggers: replay the node's "
            "durable state (recover), migrate its keys to the "
            "survivors (rebalance), or recover iff the store holds "
            "any of its state (auto, the default)"
        ),
    )

    cluster.add_argument(
        "--serve-http",
        type=int,
        default=None,
        metavar="PORT",
        help=(
            "after the run, serve the finished cluster's counts over "
            "HTTP/SSE on 127.0.0.1:PORT until interrupted (0 picks a "
            "free port; endpoints in docs/serving.md)"
        ),
    )

    cluster_modes = cluster.add_subparsers(
        dest="cluster_command", required=False
    )
    serve = cluster_modes.add_parser(
        "serve",
        help=(
            "manage long-running worker daemons (one per node, Unix "
            "sockets under the storage dir)"
        ),
    )
    serve_modes = serve.add_subparsers(dest="serve_command", required=True)

    def _serve_dir(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument(
            "--dir",
            required=True,
            metavar="DIR",
            help=(
                "cluster storage directory; the fleet lives under "
                "DIR/serve/"
            ),
        )

    serve_up = serve_modes.add_parser(
        "up", help="launch one worker daemon per node and wait for ready"
    )
    _serve_dir(serve_up)
    serve_up.add_argument("--nodes", type=int, default=4)
    serve_up.add_argument(
        "--algorithm",
        choices=(
            "exact",
            "morris",
            "morris_plus",
            "simplified_ny",
            "nelson_yu",
        ),
        default="simplified_ny",
        help="mergeable counter preset for every node",
    )
    serve_up.add_argument("--buffer", type=int, default=512)
    serve_up.add_argument(
        "--no-track-truth",
        action="store_true",
        help="skip the exact shadow counts in every worker",
    )
    serve_up.add_argument(
        "--timeout",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="how long to wait for every worker socket to come up",
    )
    serve_down = serve_modes.add_parser(
        "down",
        help=(
            "stop every worker (protocol shutdown, then SIGTERM, then "
            "SIGKILL) and forget the fleet"
        ),
    )
    _serve_dir(serve_down)
    serve_down.add_argument(
        "--timeout",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="per-worker budget before escalating to signals",
    )
    serve_ps = serve_modes.add_parser(
        "ps", help="list launched workers and whether they are alive"
    )
    _serve_dir(serve_ps)
    serve_status = serve_modes.add_parser(
        "status", help="ping every worker over its socket"
    )
    _serve_dir(serve_status)
    serve_status.add_argument(
        "--timeout",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="socket timeout per worker",
    )
    serve_query = serve_modes.add_parser(
        "query",
        help=(
            "manage the HTTP/SSE query daemon serving reads over the "
            "live worker fleet"
        ),
    )
    query_modes = serve_query.add_subparsers(
        dest="query_command", required=True
    )
    query_up = query_modes.add_parser(
        "up", help="launch the query daemon against the recorded fleet"
    )
    _serve_dir(query_up)
    query_up.add_argument(
        "--host", default="127.0.0.1", help="address to bind"
    )
    query_up.add_argument(
        "--port",
        type=int,
        default=0,
        metavar="PORT",
        help="TCP port to bind (0, the default, picks a free port)",
    )
    query_up.add_argument(
        "--timeout",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="how long to wait for the daemon to come up",
    )
    query_down = query_modes.add_parser(
        "down", help="stop the query daemon and forget its record"
    )
    _serve_dir(query_down)
    query_down.add_argument(
        "--timeout",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="budget before escalating from SIGTERM to SIGKILL",
    )
    query_status = query_modes.add_parser(
        "status", help="probe the query daemon's /healthz"
    )
    _serve_dir(query_status)
    query_status.add_argument(
        "--timeout",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="HTTP timeout for the probe",
    )

    count = subparsers.add_parser(
        "count", help="run one counter over N increments"
    )
    count.add_argument(
        "--algorithm",
        default="nelson_yu",
        help="algorithm_name from the factory registry",
    )
    count.add_argument("--n", type=int, default=1_000_000)
    count.add_argument("--epsilon", type=float, default=0.1)
    count.add_argument("--delta-exponent", type=int, default=20)
    count.add_argument("--a", type=float, default=None)

    return parser


def _run_cluster(args: argparse.Namespace) -> str:
    from repro.cluster import ClusterConfig, ClusterSimulation, make_plan
    from repro.rng.bitstream import BitBudgetedRandom
    from repro.stream.workload import zipf_workload

    from repro.errors import ParameterError, StateError

    if args.serve_http is not None and not 0 <= args.serve_http <= 65535:
        raise SystemExit(
            f"--serve-http expects a port between 0 and 65535, "
            f"got {args.serve_http}"
        )
    try:
        config = ClusterConfig.from_args(args)
    except ParameterError as exc:
        raise SystemExit(str(exc))
    gossip_every = config.gossip_every
    events = zipf_workload(
        BitBudgetedRandom(args.seed),
        n_keys=args.keys,
        n_events=args.events,
        exponent=args.exponent,
    )
    from repro.obs import JsonlTraceSink, Telemetry

    if args.no_telemetry:
        telemetry = Telemetry.disabled()
    else:
        sink = (
            JsonlTraceSink(args.trace_out)
            if args.trace_out is not None
            else None
        )
        telemetry = Telemetry(sink=sink)
    try:
        simulation = ClusterSimulation(config, telemetry=telemetry)
    except StateError as exc:
        telemetry.close()
        raise SystemExit(f"cluster storage refused: {exc}")
    metrics_text = None
    try:
        result = simulation.run(events)
        if args.metrics_out is not None:
            if args.metrics_out.endswith(".prom"):
                metrics_text = simulation.render_prometheus() + "\n"
            else:
                metrics_text = json.dumps(
                    simulation.metrics_snapshot(),
                    sort_keys=True,
                    allow_nan=False,
                    indent=2,
                ) + "\n"
    except ParameterError as exc:
        raise SystemExit(f"cluster run failed: {exc}")
    finally:
        simulation.close()
        telemetry.close()
    if metrics_text is not None:
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            handle.write(metrics_text)
    table = result.table()
    if args.aggregation == "gossip":
        table += (
            f"\ngossip aggregation: fanout {args.gossip_fanout}, "
            f"round every {gossip_every:,} events — every node's local "
            "view converged to the central answer"
        )
    if args.membership:
        table += (
            f"\nself-healing membership: suspect after "
            f"{args.suspect_after} stale rounds, "
            + (
                f"quorum {args.membership_quorum} votes"
                if args.membership_quorum is not None
                else "quorum every live node"
            )
            + f", heal mode {args.membership_heal}"
        )
    plan = make_plan(config).name
    if plan == "process":
        table += (
            f"\nprocess plan: one worker process per node, "
            f"delivery batch {args.batch}"
        )
    elif plan == "parallel":
        table += (
            f"\nparallel ingest: {args.workers} workers, "
            f"delivery batch {args.batch}"
        )
    if args.storage == "file":
        table += (
            f"\npersisted to {args.storage_dir} — re-open with "
            "repro.cluster.recover_cluster()"
        )
    if args.metrics_out is not None:
        kind = (
            "Prometheus text"
            if args.metrics_out.endswith(".prom")
            else "strict JSON"
        )
        table += f"\ntelemetry snapshot ({kind}): {args.metrics_out}"
    if args.trace_out is not None:
        table += f"\nstructured trace (JSON lines): {args.trace_out}"
    if args.serve_http is None:
        return table
    return _serve_finished_run(args, simulation, table)


def _serve_finished_run(
    args: argparse.Namespace, simulation, table: str
) -> str:
    """``--serve-http``: expose the finished run over HTTP until told
    to stop.

    The table prints immediately, followed by a parseable
    ``serving: <url>`` line (with the actually-bound port — ``--serve-
    http 0`` picks a free one), so scripts can background the CLI and
    scrape the URL.  Serving only reads: the run's result is already
    computed and its fingerprint is what it would have been unserved.
    """
    import signal
    import time

    from repro.cluster.httpd import serve_http
    from repro.cluster.query import ClusterReader

    reader = ClusterReader.from_simulation(simulation)
    server = serve_http(
        reader,
        port=args.serve_http,
        metrics_render=simulation.render_prometheus,
    )
    print(table)
    print(
        f"serving: {server.url} (SIGINT or SIGTERM stops)", flush=True
    )

    def _stop(signum, frame):
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGTERM, _stop)
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        signal.signal(signal.SIGTERM, previous)
        server.close()
    return "serving stopped"


def _run_serve(args: argparse.Namespace) -> str:
    from repro.cluster import default_template
    from repro.cluster.serve import (
        fleet_down,
        fleet_ps,
        fleet_status,
        fleet_up,
    )
    from repro.errors import ReproError

    try:
        if args.serve_command == "query":
            return _run_serve_query(args)
        if args.serve_command == "up":
            workers = fleet_up(
                args.dir,
                n_nodes=args.nodes,
                template=default_template(args.algorithm),
                seed=args.seed,
                buffer_limit=args.buffer,
                track_truth=not args.no_track_truth,
                timeout=args.timeout,
            )
            lines = [
                f"node {record['node']}: pid {record['pid']} "
                f"listening on {record['socket']}"
                for record in workers
            ]
            lines.append(
                f"{len(workers)} workers up under {args.dir} "
                "(stop with 'cluster serve down')"
            )
        elif args.serve_command == "ps":
            lines = [
                f"node {row['node']}: {row['state']} "
                f"pid {row['pid']} socket {row['socket']}"
                for row in fleet_ps(args.dir)
            ]
        elif args.serve_command == "status":
            lines = []
            for row in fleet_status(args.dir, timeout=args.timeout):
                if row["state"] == "running":
                    lines.append(
                        f"node {row['node']}: running pid {row['pid']} "
                        f"keys {row['keys']} pending {row['pending']} "
                        f"ingested {row['events_ingested']}"
                    )
                else:
                    lines.append(
                        f"node {row['node']}: {row['state']} "
                        f"({row['error']})"
                    )
        else:
            lines = [
                f"node {row['node']}: {row['state']} (pid {row['pid']})"
                for row in fleet_down(args.dir, timeout=args.timeout)
            ]
    except ReproError as exc:
        raise SystemExit(f"cluster serve {args.serve_command}: {exc}")
    return "\n".join(lines)


def _run_serve_query(args: argparse.Namespace) -> str:
    from repro.cluster.serve import query_down, query_status, query_up

    if args.query_command == "up":
        record = query_up(
            args.dir,
            host=args.host,
            port=args.port,
            timeout=args.timeout,
        )
        return (
            f"query daemon: pid {record['pid']} serving "
            f"{record['url']} over the fleet under {args.dir} "
            "(stop with 'cluster serve query down')"
        )
    if args.query_command == "status":
        row = query_status(args.dir, timeout=args.timeout)
        if row["state"] == "running":
            replicas = ",".join(str(r) for r in row["replicas"])
            return (
                f"query daemon: running pid {row['pid']} at "
                f"{row['url']} replicas {replicas}"
            )
        detail = row.get("error", row["url"])
        return f"query daemon: {row['state']} ({detail})"
    row = query_down(args.dir, timeout=args.timeout)
    return f"query daemon: {row['state']} (pid {row['pid']})"


def _run_count(args: argparse.Namespace) -> str:
    params: dict = {"seed": args.seed}
    if args.algorithm in ("morris", "morris_plus"):
        from repro.core.params import morris_a_optimal

        params["a"] = (
            args.a
            if args.a is not None
            else morris_a_optimal(args.epsilon, 2.0 ** -args.delta_exponent)
        )
    elif args.algorithm == "nelson_yu":
        params["epsilon"] = args.epsilon
        params["delta_exponent"] = args.delta_exponent
    elif args.algorithm == "simplified_ny":
        params["resolution"] = 4096
    elif args.algorithm == "csuros":
        params["d"] = 12
    elif args.algorithm == "saturating":
        params["bits"] = 20
    counter = make_counter(args.algorithm, **params)
    counter.add(args.n)
    return (
        f"{args.algorithm}: N={args.n:,} estimate={counter.estimate():,.1f} "
        f"rel.err={100 * counter.relative_error():.4f}% "
        f"state={counter.state_bits()} bits "
        f"random_bits={counter.rng.bits_consumed:,}"
    )


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    context = ExperimentContext(seed=args.seed)

    if args.command == "figure1":
        result = run_figure1(
            Figure1Config(trials=args.trials, bits=args.bits), context
        )
        print(result.plot())
        print()
        print(result.table())
        print(f"\nKS distance: {result.ks_distance():.4f}")
    elif args.command == "appendix-a":
        result = run_appendix_a(AppendixAConfig())
        print(result.table())
    elif args.command == "space":
        if args.sweep == "delta":
            result = run_delta_sweep(
                DeltaSweepConfig(trials=args.trials), context
            )
            print(result.table())
            ny, cheb = result.delta_slopes()
            print(f"\nslopes per doubling of log(1/delta): "
                  f"NelsonYu {ny:.2f}, Chebyshev {cheb:.2f}")
        elif args.sweep == "n":
            print(run_n_sweep(NSweepConfig(trials=args.trials), context).table())
        else:
            print(
                run_failure_check(
                    FailureCheckConfig(trials=max(500, args.trials)), context
                ).table()
            )
    elif args.command == "floor":
        print(run_flajolet_floor(FloorConfig()).table())
    elif args.command == "lowerbound":
        print(run_lower_bound(LowerBoundConfig(t_param=args.t)).table())
        print()
        print(run_survival_threshold().table())
    elif args.command == "merge":
        config = MergeConfig(trials=args.trials)
        if args.family == "morris":
            print(run_morris_merge(config, context=context).table())
        elif args.family == "simplified":
            print(run_simplified_merge(config, context=context).table())
        else:
            config = MergeConfig(
                n1=4000, n2=7000, trials=min(args.trials, 300)
            )
            print(run_nelson_yu_merge(config, context=context).table())
    elif args.command == "tradeoff":
        print(run_tradeoff(TradeoffConfig(trials=args.trials), context).table())
    elif args.command == "throughput":
        print(run_throughput(ThroughputConfig()).table())
    elif args.command == "bank":
        from repro.experiments.bank_exp import BankConfig, run_bank_experiment

        result = run_bank_experiment(
            BankConfig(n_counters=args.counters), context
        )
        print(result.table())
        print(f"\nexact counter: {result.exact_bits} bits")
    elif args.command == "randomness":
        from repro.experiments.randomness import (
            RandomnessConfig,
            run_randomness_budget,
        )

        print(run_randomness_budget(RandomnessConfig()).table())
    elif args.command == "ablation":
        from repro.experiments.ablations import (
            ChernoffAblationConfig,
            run_chernoff_ablation,
            run_rounding_ablation,
            run_transition_ablation,
        )

        if args.which == "chernoff":
            print(
                run_chernoff_ablation(
                    ChernoffAblationConfig(trials=args.trials), context
                ).table()
            )
        elif args.which == "rounding":
            print(
                run_rounding_ablation(
                    trials=args.trials, context=context
                ).table()
            )
        else:
            print(run_transition_ablation().table())
    elif args.command == "cluster":
        if getattr(args, "cluster_command", None) == "serve":
            print(_run_serve(args))
        else:
            print(_run_cluster(args))
    elif args.command == "count":
        print(_run_count(args))
    else:  # pragma: no cover - argparse enforces choices
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
