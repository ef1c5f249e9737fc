#!/usr/bin/env python3
"""Run one benchmark workload once and print its metrics.

    python3 perfbench/run.py --workload ingest-zipf --seed 1 --seconds 10 --trace 0

Run from the repository root.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer ledger with
``--trace 1``.  The lines before it name every metric with its unit.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space and trace output, inside the checkout.
WORK = ROOT / ".perfbench"

#: End-to-end metrics as ``(name, unit)``, in report order.
END_TO_END = (
    ("ingest_events_per_s", "events/s"),
    ("replica_read_p50_ms", "ms"),
    ("replica_read_p90_ms", "ms"),
    ("consistent_read_p50_ms", "ms"),
    ("consistent_read_p90_ms", "ms"),
    ("recover_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("bits_per_key", "bits"),
    ("ok_ops_ratio", "ratio"),
)
#: Events ingested by the read and recovery probes.
PROBE_EVENTS = 4000


def _percentile(samples: list[float], pct: int) -> float:
    return statistics.quantiles(samples, n=100)[pct - 1]


def end_to_end(workload, seed: int, seconds: float, gate, tmp: Path) -> dict[str, float]:
    import phases
    from workloads import generate, recover_probe, serve_probe

    stream = workload.stream(seed)
    probe_stream = generate(seed, PROBE_EVENTS, workload.mean_count)
    phases.settle()

    setup: list[float] = []
    tasks = [phases.setup_task(workload, tmp, setup)]
    if workload.main == "serve":
        main_phase = phases.ServeResult()
        tasks.append(phases.serve_task(workload, stream, seconds, gate, main_phase))
        reads = main_phase.reads_ms
    else:
        main_phase = phases.IngestResult()
        reads = phases.new_reads()
        tasks.append(phases.ingest_task(workload, stream, seconds, gate, tmp, main_phase))
        tasks.append(phases.read_probe_task(serve_probe(workload), probe_stream, gate, reads))
    if workload.durable:
        recover = main_phase.recover_s
    else:
        recover = []
        tasks.append(phases.recover_task(
            recover_probe(workload), probe_stream, gate, tmp, recover))
    phases.interleave(tasks)
    print(
        f"{workload.name}: {main_phase.runs.calls} run() calls, {len(reads['replica'])} replica and "
        f"{len(reads['consistent'])} consistent reads, {len(recover)} recoveries; "
        f"{main_phase.quality.eps_outside_share:.4%} of keys outside epsilon"
    )
    return {
        "ingest_events_per_s": main_phase.runs.events_per_s,
        "replica_read_p50_ms": statistics.median(reads["replica"]),
        "replica_read_p90_ms": _percentile(reads["replica"], 90),
        "consistent_read_p50_ms": statistics.median(reads["consistent"]),
        "consistent_read_p90_ms": _percentile(reads["consistent"], 90),
        "recover_s": statistics.median(recover),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "bits_per_key": main_phase.quality.bits_per_key,
    }


def traced(workload, seed: int, seconds: float, gate, tmp: Path) -> dict[str, float]:
    import ledger
    import phases

    stream = workload.stream(seed)
    phases.settle()
    tracer = ledger.Tracer()
    log = phases.TraceLog()
    ledger.install(tracer)
    try:
        if workload.main == "serve":
            task = phases.serve_task(
                workload, stream, seconds, gate, phases.ServeResult(),
                min_sessions=2, tracer=tracer, trace_log=log,
            )
        else:
            task = phases.ingest_task(
                workload, stream, seconds, gate, tmp, phases.IngestResult(),
                tracer=tracer, trace_log=log,
            )
        phases.interleave([task])
    finally:
        tracer.unwrap_all()
    metrics = log.metrics()
    out = WORK / f"trace-{workload.name}-seed{seed}.json"
    out.write_text(json.dumps({
        "workload": workload.name,
        "seed": seed,
        "ledger": metrics,
        "trials": log.ledgers,
        "spans_fields": ["name", "start", "end", "parent", "thread", "index"],
        "spans": log.last_spans,
    }))
    print(f"{workload.name}: spans of the last traced trial written to {out.relative_to(ROOT)}")
    return {name: metrics.get(name, 0.0) for name, _, _ in ledger.LAYER_METRICS}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ledger
    from gate import Gate
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    tmp = WORK / f"tmp-{args.workload}-{args.seed}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    gate = Gate()
    try:
        if args.trace:
            metrics = traced(workload, args.seed, args.seconds, gate, tmp)
            units = {name: unit for name, unit, _ in ledger.LAYER_METRICS}
        else:
            metrics = end_to_end(workload, args.seed, args.seconds, gate, tmp)
            metrics["ok_ops_ratio"] = gate.ok_ratio
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for name, value in metrics.items():
        print(f"{workload.name}: {name} = {value:.6g} {units[name]}")
    if gate.failed:
        print(f"{workload.name}: {gate.failed} of {gate.attempted} operations FAILED the gate")
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
