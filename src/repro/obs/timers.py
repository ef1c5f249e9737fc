"""Low-overhead per-stage timers for the delivery hot path.

The third telemetry pillar profiles where wall-clock goes on the
delivery path: ``route`` (the coordinator picks the owner node and
does the per-event bookkeeping) → ``deliver`` (WAL append) →
``bank_consume`` (buffer submit, including auto-flush) → ``fsync``
(durability stalls inside the file-backed WAL).  The delivery stages
are timed once per batch of events: a section's ``count`` is the
number of events it covered, so ``max_s`` is a per-batch maximum.

The design constraint is the parallel ingest plan: several worker
threads time their own stages concurrently, and a shared locked
accumulator would serialize exactly the path we are measuring.  So a
:class:`StageTimer` is **thread-confined** — a plain dict of
``stage -> [count, total_s, max_s]`` cells with no lock at all; the
:class:`~repro.obs.Telemetry` facade hands each thread its own timer
(via ``threading.local``) and merges them only at snapshot time, when
workers are quiescent.  One ``add`` is two dict operations and three
float ops.

Everything in here is wall clock, therefore volatile and *never*
persisted or fingerprinted: stage timings exist only in exported
snapshots.

>>> timer = StageTimer()
>>> timer.add("route", 0.25)
>>> timer.add("route", 0.75, count=64)
>>> timer.snapshot()["route"]["count"]
65
>>> timer.snapshot()["route"]["total_s"]
1.0
"""

from __future__ import annotations

from typing import Any

__all__ = ["StageTimer", "merge_stage_snapshots"]


class StageTimer:
    """Thread-confined accumulator of ``stage -> (count, total, max)``."""

    __slots__ = ("_stages",)

    def __init__(self) -> None:
        self._stages: dict[str, list[float]] = {}

    def add(self, stage: str, seconds: float, count: int = 1) -> None:
        """Fold one timed section covering ``count`` events into the
        stage's cell (``max_s`` is the longest single section)."""
        cell = self._stages.get(stage)
        if cell is None:
            self._stages[stage] = [count, seconds, seconds]
        else:
            cell[0] += count
            cell[1] += seconds
            if seconds > cell[2]:
                cell[2] = seconds

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """JSON-safe ``{stage: {count, total_s, max_s}}``."""
        return {
            stage: {
                "count": int(cell[0]),
                "total_s": cell[1],
                "max_s": cell[2],
            }
            for stage, cell in sorted(self._stages.items())
        }


def merge_stage_snapshots(
    snapshots: list[dict[str, dict[str, Any]]],
) -> dict[str, dict[str, Any]]:
    """Combine per-thread stage snapshots into one aggregate.

    >>> a = {"route": {"count": 2, "total_s": 1.0, "max_s": 0.75}}
    >>> b = {"route": {"count": 1, "total_s": 0.5, "max_s": 0.5}}
    >>> merge_stage_snapshots([a, b])["route"]["count"]
    3
    """
    merged: dict[str, dict[str, Any]] = {}
    for snapshot in snapshots:
        for stage, cell in snapshot.items():
            into = merged.get(stage)
            if into is None:
                merged[stage] = dict(cell)
            else:
                into["count"] += cell["count"]
                into["total_s"] += cell["total_s"]
                if cell["max_s"] > into["max_s"]:
                    into["max_s"] = cell["max_s"]
    return dict(sorted(merged.items()))
