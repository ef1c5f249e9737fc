#!/usr/bin/env python3
"""Gate fresh throughput smoke runs against the committed trajectory.

The throughput bench's weighted arm measures how much faster geometric
skip-ahead consumption is than per-unit coin flips
(``skip_ahead_speedup``).  Full runs append that measurement to the
committed ``benchmarks/trajectory/BENCH_cluster_throughput_trajectory
.json``; this gate compares a *fresh* run's speedup against the latest
committed reference and fails loudly on a > 20% regression.

The speedup is a ratio of two runs on the same machine, so it transfers
across hardware far better than absolute events/sec — but it still
needs a comparable workload, which is why full-run trajectory rows also
record ``skip_ahead_speedup_smoke``: the same arm re-measured at smoke
size, the apples-to-apples reference for CI's smoke rows.

The cluster harness that wrote the fresh artifact is retired; CI no
longer runs this gate.  Its successor is the deterministic bit-count
test ``tests/core/test_skip_ahead.py::TestWeightedStreamBitBill``.
The script stays for artifacts that harness left behind.

Unlike the bench's multi-worker bars, this gate does *not* skip on
single-core runners: the speedup under test is a ratio of two serial
runs of the same workload, meaningful on any core count.

Skips (exit 0, loudly) when there is no committed trajectory yet
(bootstrap — the first full run creates it).  Fails (exit 1) when the
fresh artifact is missing.

Usage::

    python scripts/check_throughput_regression.py [--max-regression 0.2]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

REPO = pathlib.Path(__file__).resolve().parents[1]
FRESH = REPO / "benchmarks" / "results" / "BENCH_cluster_throughput.json"
TRAJECTORY = (
    REPO
    / "benchmarks"
    / "trajectory"
    / "BENCH_cluster_throughput_trajectory.json"
)

#: The full-run size of the retired cluster harness's throughput scenario.
FULL_RUN_EVENTS = 400_000


def _display(path: pathlib.Path) -> str:
    """Repo-relative when possible (the usual case), absolute otherwise."""
    try:
        return str(path.relative_to(REPO))
    except ValueError:
        return str(path)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.2,
        help="allowed fractional drop vs the reference (default: 0.2)",
    )
    args = parser.parse_args(argv)
    if not TRAJECTORY.exists():
        print(
            "throughput regression gate: no committed trajectory at "
            f"{_display(TRAJECTORY)} — bootstrap pending, "
            "skipping (a full '--scenario throughput' run creates it)"
        )
        return 0
    if not FRESH.exists():
        print(
            "throughput regression gate: no fresh artifact at "
            f"{_display(FRESH)}"
        )
        return 1
    fresh = json.loads(FRESH.read_text(encoding="utf-8"))
    trajectory = json.loads(TRAJECTORY.read_text(encoding="utf-8"))
    rows = trajectory.get("rows") or []
    if not rows:
        print(
            "throughput regression gate: committed trajectory holds no "
            "rows — bootstrap pending, skipping"
        )
        return 0
    reference = rows[-1]
    full_run = int(fresh["workload"]["events"]) >= FULL_RUN_EVENTS
    # A fresh full run compares against the reference's full-size
    # measurement; a smoke run against the smoke-size re-measurement
    # the full run recorded alongside it.
    key = "skip_ahead_speedup" if full_run else "skip_ahead_speedup_smoke"
    measured = float(fresh["skip_ahead_speedup"])
    baseline = float(reference[key])
    floor = baseline * (1.0 - args.max_regression)
    verdict = (
        f"measured {measured:.2f}x vs committed {baseline:.2f}x "
        f"({reference.get('date', 'undated')} reference, "
        f"{'full' if full_run else 'smoke'} run, floor {floor:.2f}x)"
    )
    if measured < floor:
        print(
            "throughput regression gate: FAIL — skip-ahead speedup "
            f"regressed more than {100 * args.max_regression:.0f}%: "
            + verdict
        )
        return 1
    print(f"throughput regression gate: ok — {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
