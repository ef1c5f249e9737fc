#!/usr/bin/env python3
"""Run workloads repeatedly and report each metric's spread against its bound.

    python3 perfbench/repeat.py --runs 10 [--workload NAME ...] [--seed-base 1]
                                [--seconds N] [--trace 0|1]

Each run is a fresh interpreter (``perfbench/run.py``) with its own
seed (``seed-base``, ``seed-base + 1``, ...).  For every end-to-end
metric this prints the median, the quartiles (``statistics.quantiles(
values, n=4)``) and the spread, ``(q3 - q1) / median``, next to the
metric's bound from ``BENCHMARK.json``; a spread above a third of its
bound is flagged.  ``setup_s`` is exempt from the spread rule (it is
held to its bound run set against run set instead).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - started
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """``(median, q1, q3, (q3 - q1) / median)``."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for workload in workloads:
        runs = [
            run_once(workload, args.seed_base + i, args.seconds, args.trace)
            for i in range(args.runs)
        ]
        walls = [run["wall_s"] for run in runs]
        print(f"\n{workload}: {args.runs} runs, {sum(walls):.0f} s "
              f"(longest {max(walls):.1f} s); all correct: "
              f"{all(run['correct'] for run in runs)}")
        for name in runs[0]["metrics"]:
            values = [run["metrics"][name]["value"] for run in runs]
            if len(values) < 2:
                print(f"  {name:28s} {values[0]:.6g}")
                continue
            median, q1, q3, share = spread(values)
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and share > bound / 3:
                flag = "  <-- spread above bound/3"
                steady = False
            bound_text = f"bound {bound:.3f}" if bound is not None else ""
            print(f"  {name:28s} median {median:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {share:.3f} {bound_text}{flag}")
    print("\nsteady" if steady else "\nNOT steady")
    return 0


if __name__ == "__main__":
    sys.exit(main())
