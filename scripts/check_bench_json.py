#!/usr/bin/env python3
"""Validate every ``BENCH_*.json`` artifact: strict JSON + shared schema.

The benchmark suite writes machine-readable artifacts under
``benchmarks/results/`` with a shared schema (``benchmark`` / ``seed`` /
``workload`` / ``rows``).  This checker fails (exit 1) when any artifact

* is not *strict* JSON — ``NaN`` / ``Infinity`` / ``-Infinity`` are
  rejected with ``json.loads(..., parse_constant=...)``, the regression
  guard for the ``events_per_sec: Infinity`` bug, and a re-dump with
  ``allow_nan=False`` must round-trip;
* is missing a required key, or carries one with the wrong shape
  (``rows`` must be a non-empty list of objects, ``workload`` an
  object, ``seed`` an integer);
* names a different benchmark than its filename promises
  (``BENCH_<name>.json`` must carry ``"benchmark": "<name>"``);
* embeds a malformed telemetry snapshot — a row's optional
  ``metrics`` object (written by the cluster scenarios from
  ``repro.obs``) must carry ``counters`` (string → non-negative int),
  ``gauges`` (string → number), ``histograms`` (series →
  buckets/count/sum) and ``stages`` (stage → count/total_s/max_s);
* is a ``cluster_membership`` artifact whose rows break the scenario's
  own acceptance shape — every row must carry ``nodes`` (positive
  int), ``detection_rounds`` (non-negative int), and
  ``healed_equivalent`` exactly ``true`` (a self-healed run that is
  *not* bit-identical to its driver-healed reference must never ship);
* is a ``cluster_throughput`` artifact that breaks the plan-arm shape
  — ``parallel_bit_identical`` and ``process_bit_identical`` must be
  exactly ``true`` (an execution plan that diverged from the serial
  reference must never ship), and ``process_rows`` must be a
  non-empty list whose rows carry ``nodes`` (positive int), ``arm``
  (``serial`` / ``parallel`` / ``process``), and a positive
  ``events_per_sec``;
* is a ``cluster_throughput`` artifact whose weighted skip-ahead arm
  is malformed or dishonest — ``skipahead_rows`` must hold exactly a
  ``per_unit`` row then a ``skip_ahead`` row with positive rates,
  ``weighted_bit_identical`` must be exactly ``true``, and on full
  runs (≥ 400k events) the skip-ahead arm must not be slower than the
  per-unit arm (``skip_ahead_speedup >= 1``);
* is a ``cluster_throughput_trajectory`` artifact (the *committed*
  skip-ahead history under ``benchmarks/trajectory/``) whose rows
  lack the reference fields the regression gate needs, or record a
  full run where skip-ahead lost to per-unit;
* is a ``cluster_serving`` artifact whose rows break the serving
  scenario's acceptance shape — every row must carry ``replicas``
  (positive int), a positive ``queries_per_sec``, honest staleness
  fields (``staleness_lag_events`` non-negative int,
  ``staleness_bound_events`` positive int), and both
  ``replica_reads_bit_identical`` and ``served_equals_unserved``
  exactly ``true`` (a serving layer that changed what the cluster
  computes, or replica reads that diverged from ``global_view()``
  after convergence, must never ship).

Usage::

    python scripts/check_bench_json.py [paths...] [--quiet]

With no paths, checks every ``BENCH_*.json`` under
``benchmarks/results/`` plus the committed trajectory artifacts under
``benchmarks/trajectory/``, and fails if there are none.

``benchmarks/_bench_utils.py``'s ``write_json_result`` writes the
shared schema.  The ``cluster_*`` shapes are those of the retired
cluster harness; of its artifacts only the committed trajectory
remains.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

REPO = pathlib.Path(__file__).resolve().parents[1]
RESULTS_DIR = REPO / "benchmarks" / "results"
TRAJECTORY_DIR = REPO / "benchmarks" / "trajectory"

#: The full-run size of the retired cluster harness's throughput scenario
#: — below this the skip-ahead speedup is smoke-run noise and only the
#: shape is validated, not the win.
FULL_RUN_EVENTS = 400_000

_REQUIRED_KEYS = ("benchmark", "seed", "workload", "rows")


def _reject_constant(token: str) -> float:
    """Refuse the non-finite constants strict JSON does not allow."""
    raise ValueError(f"non-finite JSON constant {token!r}")


def _check_metrics(metrics: object, where: str) -> list[str]:
    """Schema problems with one embedded telemetry snapshot."""
    if not isinstance(metrics, dict):
        return [f"{where}: metrics must be an object"]
    problems: list[str] = []
    for family in ("counters", "gauges", "histograms", "stages"):
        if family not in metrics:
            problems.append(f"{where}: metrics missing {family!r}")
        elif not isinstance(metrics[family], dict):
            problems.append(f"{where}: metrics {family} must be an object")
    if problems:
        return problems
    for series, value in metrics["counters"].items():
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            problems.append(
                f"{where}: counter {series!r} must be a non-negative "
                f"integer, got {value!r}"
            )
    for series, value in metrics["gauges"].items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            problems.append(
                f"{where}: gauge {series!r} must be numeric, got {value!r}"
            )
    for series, histogram in metrics["histograms"].items():
        if not isinstance(histogram, dict) or not all(
            key in histogram for key in ("buckets", "count", "sum")
        ):
            problems.append(
                f"{where}: histogram {series!r} must carry "
                "buckets/count/sum"
            )
        elif not isinstance(histogram["buckets"], list):
            problems.append(
                f"{where}: histogram {series!r} buckets must be a list"
            )
    for stage, cell in metrics["stages"].items():
        if not isinstance(cell, dict) or not all(
            key in cell for key in ("count", "total_s", "max_s")
        ):
            problems.append(
                f"{where}: stage {stage!r} must carry count/total_s/max_s"
            )
    return problems


def _check_membership_row(row: dict, where: str) -> list[str]:
    """Schema problems with one ``cluster_membership`` scenario row."""
    problems: list[str] = []
    nodes = row.get("nodes")
    if not isinstance(nodes, int) or isinstance(nodes, bool) or nodes < 1:
        problems.append(
            f"{where}: nodes must be a positive integer, got {nodes!r}"
        )
    rounds = row.get("detection_rounds")
    if (
        not isinstance(rounds, int)
        or isinstance(rounds, bool)
        or rounds < 0
    ):
        problems.append(
            f"{where}: detection_rounds must be a non-negative "
            f"integer, got {rounds!r}"
        )
    if row.get("healed_equivalent") is not True:
        problems.append(
            f"{where}: healed_equivalent must be true — a self-healed "
            "run that diverged from its driver-healed reference must "
            "never ship"
        )
    return problems


def _check_serving_row(row: dict, where: str) -> list[str]:
    """Schema problems with one ``cluster_serving`` scenario row."""
    problems: list[str] = []
    replicas = row.get("replicas")
    if (
        not isinstance(replicas, int)
        or isinstance(replicas, bool)
        or replicas < 1
    ):
        problems.append(
            f"{where}: replicas must be a positive integer, "
            f"got {replicas!r}"
        )
    rate = row.get("queries_per_sec")
    if (
        isinstance(rate, bool)
        or not isinstance(rate, (int, float))
        or rate <= 0
    ):
        problems.append(
            f"{where}: queries_per_sec must be positive, got {rate!r}"
        )
    lag = row.get("staleness_lag_events")
    if not isinstance(lag, int) or isinstance(lag, bool) or lag < 0:
        problems.append(
            f"{where}: staleness_lag_events must be a non-negative "
            f"integer, got {lag!r}"
        )
    bound = row.get("staleness_bound_events")
    if not isinstance(bound, int) or isinstance(bound, bool) or bound < 1:
        problems.append(
            f"{where}: staleness_bound_events must be a positive "
            f"integer, got {bound!r}"
        )
    if row.get("replica_reads_bit_identical") is not True:
        problems.append(
            f"{where}: replica_reads_bit_identical must be true — a "
            "converged replica read that diverged from global_view() "
            "must never ship"
        )
    if row.get("served_equals_unserved") is not True:
        problems.append(
            f"{where}: served_equals_unserved must be true — a serving "
            "layer that changed what the cluster computes must never "
            "ship"
        )
    return problems


_PLAN_ARMS = ("serial", "parallel", "process")


def _check_throughput_extras(payload: dict) -> list[str]:
    """Schema problems with ``cluster_throughput``'s plan-arm shape."""
    problems: list[str] = []
    for flag in ("parallel_bit_identical", "process_bit_identical"):
        if payload.get(flag) is not True:
            problems.append(
                f"{flag} must be true — an execution plan that "
                "diverged from the serial reference must never ship"
            )
    process_rows = payload.get("process_rows")
    if not isinstance(process_rows, list) or not process_rows:
        problems.append("process_rows must be a non-empty list")
        return problems
    for index, row in enumerate(process_rows):
        where = f"process_rows[{index}]"
        if not isinstance(row, dict):
            problems.append(f"{where}: must be an object")
            continue
        nodes = row.get("nodes")
        if (
            not isinstance(nodes, int)
            or isinstance(nodes, bool)
            or nodes < 1
        ):
            problems.append(
                f"{where}: nodes must be a positive integer, "
                f"got {nodes!r}"
            )
        if row.get("arm") not in _PLAN_ARMS:
            problems.append(
                f"{where}: arm must be one of {_PLAN_ARMS}, "
                f"got {row.get('arm')!r}"
            )
        rate = row.get("events_per_sec")
        if (
            isinstance(rate, bool)
            or not isinstance(rate, (int, float))
            or rate <= 0
        ):
            problems.append(
                f"{where}: events_per_sec must be positive, "
                f"got {rate!r}"
            )
        if "metrics" in row:
            problems.extend(_check_metrics(row["metrics"], where))
    problems.extend(_check_skipahead_arm(payload))
    return problems


_CONSUME_ARMS = ("per_unit", "skip_ahead")


def _positive_rate(value: object) -> bool:
    return (
        not isinstance(value, bool)
        and isinstance(value, (int, float))
        and value > 0
    )


def _check_skipahead_arm(payload: dict) -> list[str]:
    """Problems with ``cluster_throughput``'s weighted skip-ahead arm."""
    problems: list[str] = []
    rows = payload.get("skipahead_rows")
    if not isinstance(rows, list) or [
        row.get("arm") if isinstance(row, dict) else None for row in rows
    ] != list(_CONSUME_ARMS):
        problems.append(
            "skipahead_rows must hold exactly a per_unit row then a "
            "skip_ahead row"
        )
        return problems
    for index, row in enumerate(rows):
        where = f"skipahead_rows[{index}]"
        if not _positive_rate(row.get("events_per_sec")):
            problems.append(
                f"{where}: events_per_sec must be positive, "
                f"got {row.get('events_per_sec')!r}"
            )
        if "metrics" in row:
            problems.extend(_check_metrics(row["metrics"], where))
    if payload.get("weighted_bit_identical") is not True:
        problems.append(
            "weighted_bit_identical must be true — a consume mode that "
            "changed what an exact cluster computes must never ship"
        )
    speedup = payload.get("skip_ahead_speedup")
    if not _positive_rate(speedup):
        problems.append(
            f"skip_ahead_speedup must be positive, got {speedup!r}"
        )
        return problems
    workload = payload.get("workload")
    events = workload.get("events") if isinstance(workload, dict) else 0
    if (
        isinstance(events, int)
        and events >= FULL_RUN_EVENTS
        and speedup < 1.0
    ):
        problems.append(
            f"skip_ahead_speedup {speedup} < 1 on a full run — the "
            "skip-ahead arm must never be slower than per-unit"
        )
    return problems


def _check_trajectory_row(row: dict, where: str) -> list[str]:
    """Problems with one committed ``cluster_throughput_trajectory`` row."""
    problems: list[str] = []
    cpus = row.get("cpus")
    if not isinstance(cpus, int) or isinstance(cpus, bool) or cpus < 1:
        problems.append(
            f"{where}: cpus must be a positive integer, got {cpus!r}"
        )
    for field in (
        "per_unit_events_per_sec",
        "skip_ahead_events_per_sec",
        "skip_ahead_speedup",
        "skip_ahead_speedup_smoke",
    ):
        if not _positive_rate(row.get(field)):
            problems.append(
                f"{where}: {field} must be positive, "
                f"got {row.get(field)!r}"
            )
    speedup = row.get("skip_ahead_speedup")
    if _positive_rate(speedup) and speedup < 1.0:
        problems.append(
            f"{where}: skip_ahead_speedup {speedup} < 1 — trajectory "
            "rows record full runs, where skip-ahead must win"
        )
    return problems


def check_payload(payload: object, expected_name: str | None) -> list[str]:
    """Schema problems with one parsed artifact (empty when valid)."""
    problems: list[str] = []
    if not isinstance(payload, dict):
        return [f"top level must be an object, got {type(payload).__name__}"]
    for key in _REQUIRED_KEYS:
        if key not in payload:
            problems.append(f"missing required key {key!r}")
    if problems:
        return problems
    if expected_name is not None and payload["benchmark"] != expected_name:
        problems.append(
            f"benchmark name {payload['benchmark']!r} does not match "
            f"the filename's {expected_name!r}"
        )
    if not isinstance(payload["seed"], int):
        problems.append("seed must be an integer")
    if not isinstance(payload["workload"], dict):
        problems.append("workload must be an object")
    rows = payload["rows"]
    if not isinstance(rows, list) or not rows:
        problems.append("rows must be a non-empty list")
    elif not all(isinstance(row, dict) for row in rows):
        problems.append("every row must be an object")
    else:
        for index, row in enumerate(rows):
            if "metrics" in row:
                problems.extend(
                    _check_metrics(row["metrics"], f"rows[{index}]")
                )
            if payload["benchmark"] == "cluster_membership":
                problems.extend(
                    _check_membership_row(row, f"rows[{index}]")
                )
            if payload["benchmark"] == "cluster_serving":
                problems.extend(
                    _check_serving_row(row, f"rows[{index}]")
                )
            if payload["benchmark"] == "cluster_throughput_trajectory":
                problems.extend(
                    _check_trajectory_row(row, f"rows[{index}]")
                )
    if payload["benchmark"] == "cluster_throughput":
        problems.extend(_check_throughput_extras(payload))
    return problems


def check_file(path: pathlib.Path) -> list[str]:
    """All problems with one artifact file (empty when valid)."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        return [f"unreadable: {exc}"]
    try:
        payload = json.loads(text, parse_constant=_reject_constant)
    except ValueError as exc:
        return [f"not strict JSON: {exc}"]
    name = path.name
    expected = (
        name[len("BENCH_"):-len(".json")]
        if name.startswith("BENCH_") and name.endswith(".json")
        else None
    )
    problems = check_payload(payload, expected)
    try:
        json.dumps(payload, allow_nan=False)
    except ValueError as exc:  # pragma: no cover - loads would fail first
        problems.append(f"does not re-serialize strictly: {exc}")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=pathlib.Path,
        help=(
            "artifact files to check (default: benchmarks/results/"
            "BENCH_*.json)"
        ),
    )
    parser.add_argument(
        "--quiet", action="store_true", help="only print failures"
    )
    args = parser.parse_args(argv)
    paths = args.paths or (
        sorted(RESULTS_DIR.glob("BENCH_*.json"))
        + sorted(TRAJECTORY_DIR.glob("BENCH_*.json"))
    )
    if not paths:
        print(
            f"no BENCH_*.json artifacts under {RESULTS_DIR} "
            f"or {TRAJECTORY_DIR}"
        )
        return 1
    failures = 0
    for path in paths:
        for problem in check_file(path):
            failures += 1
            try:
                shown = path.relative_to(REPO)
            except ValueError:
                shown = path
            print(f"{shown}: {problem}")
    if failures:
        print(f"\n{failures} problem(s) across {len(paths)} artifact(s)")
        return 1
    if not args.quiet:
        print(f"bench JSON ok: {len(paths)} artifact(s) validated")
    return 0


if __name__ == "__main__":
    sys.exit(main())
