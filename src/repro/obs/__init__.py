"""Cluster telemetry: metrics registry, trace log, profiling hooks.

``repro.obs`` is the observability substrate for the cluster layer
(:mod:`repro.cluster`).  One :class:`Telemetry` object travels with a
:class:`~repro.cluster.simulation.ClusterSimulation` and bundles the
three pillars:

1. a :class:`~repro.obs.registry.MetricsRegistry` — counters, gauges,
   and windowed histograms that the simulation, pipeline, storage,
   router, and gossip layers publish into;
2. a :class:`~repro.obs.trace.TraceSink` — the structured,
   stream-position-stamped lifecycle trace log;
3. per-thread :class:`~repro.obs.timers.StageTimer` profiling of the
   delivery hot path (``route → deliver → bank_consume → fsync``).

**The inertness contract.**  Telemetry must never change what the
cluster computes.  It is engineered in two layers to make that hold by
construction:

* *Deterministic counters* are always on — they count decisions the
  simulation makes (events delivered, checkpoints taken, fsyncs
  issued), never influence them, draw no randomness, and are identical
  for the same ``(config, stream)`` whatever the execution plan.  The
  end-of-run statistics (``NodeStats``, the manifest bookkeeping) read
  *from* the registry, so these cannot be turned off.
* *Wall-clock layers* — stage timers, duration histograms, and trace
  emission — are gated by :attr:`Telemetry.enabled` (the CLI's
  ``--no-telemetry`` builds a disabled facade).  They only ever read
  the clock and write to telemetry-private state.

A property sweep pins the consequence: runs with telemetry disabled,
enabled, and file-sinked are bit-identical on ``GlobalView``
fingerprints, serially and in parallel.

>>> telemetry = Telemetry(sink=RingTraceSink(capacity=16))
>>> telemetry.registry.inc("crashes_total", node=2)
>>> telemetry.position = 41
>>> telemetry.trace("crash", node=2)
>>> telemetry.sink.records()
[{'type': 'crash', 'position': 41, 'node': 2}]
>>> disabled = Telemetry.disabled()
>>> disabled.trace_active
False
"""

from __future__ import annotations

import threading
from typing import Any

from repro.obs.registry import (
    DEFAULT_DURATION_BOUNDS,
    Histogram,
    MetricsRegistry,
    series_key,
)
from repro.obs.timers import StageTimer, merge_stage_snapshots
from repro.obs.trace import (
    JsonlTraceSink,
    NullTraceSink,
    RingTraceSink,
    TraceSink,
)

__all__ = [
    "DEFAULT_DURATION_BOUNDS",
    "Histogram",
    "JsonlTraceSink",
    "MetricsRegistry",
    "NullTraceSink",
    "RingTraceSink",
    "StageTimer",
    "Telemetry",
    "TraceSink",
    "merge_stage_snapshots",
    "series_key",
]


class Telemetry:
    """Registry + trace sink + stage timers behind one facade.

    ``enabled`` gates every wall-clock layer (timers, duration
    histograms, traces); the registry's deterministic counters are
    always live — see the module docstring for why.

    ``position`` is the coordinator-maintained stream position (events
    delivered so far); trace emitters stamp it into every record.
    Records emitted from worker threads (e.g. ``wal_fsync``) read the
    coordinator's latest stamp, which is approximate by design — the
    fsync physically happens while the coordinator is already routing
    ahead.
    """

    def __init__(
        self,
        enabled: bool = True,
        sink: TraceSink | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.enabled = bool(enabled)
        self.sink = sink if sink is not None else NullTraceSink()
        self.registry = (
            registry if registry is not None else MetricsRegistry()
        )
        self.position = 0
        self._timers: list[StageTimer] = []
        self._timers_lock = threading.Lock()
        self._local = threading.local()
        self._external_stages: list[dict[str, dict[str, Any]]] = []

    @classmethod
    def disabled(cls) -> "Telemetry":
        """A facade with every wall-clock layer off (the
        ``--no-telemetry`` configuration).  Counters still run."""
        return cls(enabled=False)

    # ------------------------------------------------------------------
    # trace log
    # ------------------------------------------------------------------
    @property
    def trace_active(self) -> bool:
        """Whether emitters should build trace records at all."""
        return self.enabled and self.sink.active

    def trace(
        self, kind: str, position: int | None = None, **fields: Any
    ) -> None:
        """Emit one lifecycle record (no-op unless
        :attr:`trace_active`)."""
        if not (self.enabled and self.sink.active):
            return
        record: dict[str, Any] = {
            "type": kind,
            "position": self.position if position is None else position,
        }
        record.update(fields)
        self.sink.emit(record)

    # ------------------------------------------------------------------
    # stage timers
    # ------------------------------------------------------------------
    def stage_timer(self) -> StageTimer:
        """This thread's private timer (created on first use; merged at
        :meth:`stage_snapshot` time).  A disabled facade hands out a
        timer it never merges, so call sites time unconditionally."""
        timer = getattr(self._local, "timer", None)
        if timer is None:
            timer = StageTimer()
            if self.enabled:
                with self._timers_lock:
                    self._timers.append(timer)
            self._local.timer = timer
        return timer

    def absorb_stages(
        self, stages: dict[str, dict[str, Any]]
    ) -> None:
        """Fold in a stage snapshot produced outside this process.

        The process execution plan pulls each worker subprocess's
        :class:`StageTimer` snapshot over the wire (``metrics_pull``)
        and absorbs it here, so :meth:`stage_snapshot` covers the whole
        deployment exactly as it covers in-process worker threads (and,
        like them, is discarded by a disabled facade).
        """
        if stages and self.enabled:
            with self._timers_lock:
                self._external_stages.append(dict(stages))

    def stage_snapshot(self) -> dict[str, dict[str, Any]]:
        """All threads' stage timings merged (plus any absorbed
        worker-process snapshots).  Call only when workers are
        quiescent (between runs / after ``run()`` returns)."""
        with self._timers_lock:
            snapshots = [timer.snapshot() for timer in self._timers]
            snapshots.extend(self._external_stages)
        return merge_stage_snapshots(snapshots)

    # ------------------------------------------------------------------
    # exporters
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """Strict-JSON metrics document: the registry's three families
        plus the merged ``stages`` timings."""
        document = self.registry.snapshot()
        document["stages"] = self.stage_snapshot()
        return document

    def render_prometheus(self) -> str:
        """Prometheus text exposition: registry series plus the stage
        timings as ``stage_seconds_total`` / ``stage_events_total`` /
        ``stage_seconds_max`` gauges."""
        lines = [self.registry.render_prometheus()]
        stages = self.stage_snapshot()
        if stages:
            lines.append("# TYPE stage_events_total counter")
            for stage, cell in stages.items():
                lines.append(
                    'stage_events_total{stage="%s"} %s'
                    % (stage, cell["count"])
                )
            lines.append("# TYPE stage_seconds_total counter")
            for stage, cell in stages.items():
                lines.append(
                    'stage_seconds_total{stage="%s"} %s'
                    % (stage, cell["total_s"])
                )
            lines.append("# TYPE stage_seconds_max gauge")
            for stage, cell in stages.items():
                lines.append(
                    'stage_seconds_max{stage="%s"} %s'
                    % (stage, cell["max_s"])
                )
        return "\n".join(line for line in lines if line)

    def close(self) -> None:
        """Close the trace sink (idempotent)."""
        self.sink.close()
