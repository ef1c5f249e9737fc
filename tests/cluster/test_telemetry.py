"""Unit tests for the telemetry substrate (:mod:`repro.obs`).

Covers the three pillars in isolation — registry (counters, gauges,
windowed histograms), trace sinks (null / ring / JSONL file), and stage
timers — plus the ``Telemetry`` facade's gating and the simulation-level
wiring that the property and crash-matrix layers then pin end to end.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterSimulation,
    NodeFailure,
)
from repro.errors import ParameterError
from repro.obs import (
    DEFAULT_DURATION_BOUNDS,
    Histogram,
    JsonlTraceSink,
    MetricsRegistry,
    NullTraceSink,
    RingTraceSink,
    StageTimer,
    Telemetry,
    merge_stage_snapshots,
    series_key,
)
from repro.rng.bitstream import BitBudgetedRandom
from repro.stream.workload import zipf_workload

_SEED = 1234


def _events(n_events: int = 2000):
    return zipf_workload(
        BitBudgetedRandom(_SEED), n_keys=60, n_events=n_events
    )


class TestMetricsRegistry:
    def test_counters_accumulate_per_label_set(self):
        registry = MetricsRegistry()
        registry.inc("events_total", node=0)
        registry.inc("events_total", 4, node=0)
        registry.inc("events_total", node=1)
        assert registry.counter("events_total", node=0) == 5
        assert registry.counter("events_total", node=1) == 1
        assert registry.counter("events_total", node=9) == 0

    def test_negative_increment_refused(self):
        registry = MetricsRegistry()
        with pytest.raises(ParameterError):
            registry.inc("events_total", -1)

    def test_load_counter_is_a_monotone_floor(self):
        registry = MetricsRegistry()
        registry.inc("crashes", 3, node=0)
        registry.load_counter("crashes", 2, node=0)  # below: no-op
        assert registry.counter("crashes", node=0) == 3
        registry.load_counter("crashes", 7, node=0)  # above: raises
        assert registry.counter("crashes", node=0) == 7

    def test_export_import_round_trip(self):
        registry = MetricsRegistry()
        registry.inc("a", 2)
        registry.inc("b", 5, node=1, zone="x")
        blob = registry.export_counters()
        restored = MetricsRegistry()
        restored.import_counters(blob)
        assert restored.counter("a") == 2
        assert restored.counter("b", node=1, zone="x") == 5
        assert restored.export_counters() == blob

    def test_series_key_sorts_labels(self):
        assert series_key("m", {"b": 2, "a": 1}) == "m{a=1,b=2}"
        assert series_key("m", {}) == "m"

    def test_gauges_set_and_clear(self):
        registry = MetricsRegistry()
        registry.set_gauge("depth", 4, node=0)
        registry.set_gauge("depth", 9, node=1)
        assert registry.gauge("depth", node=1) == 9
        registry.clear_gauges("depth")
        assert registry.gauge("depth", node=0) is None

    def test_snapshot_is_strict_json(self):
        registry = MetricsRegistry()
        registry.inc("c", node=0)
        registry.set_gauge("g", 1.5)
        registry.observe("h", 0.002)
        text = json.dumps(
            registry.snapshot(), sort_keys=True, allow_nan=False
        )
        assert json.loads(text)["counters"] == {"c{node=0}": 1}

    def test_prometheus_rendering(self):
        registry = MetricsRegistry()
        registry.inc("c_total", 2, node=0)
        registry.set_gauge("g", 7)
        registry.observe("h_seconds", 0.5)
        text = registry.render_prometheus()
        assert "# TYPE c_total counter" in text
        assert 'c_total{node="0"} 2' in text
        assert "g 7" in text
        assert "h_seconds_count 1" in text
        assert 'le="+Inf"' in text


class TestHistogram:
    def test_bucketing_against_fixed_bounds(self):
        histogram = Histogram(bounds=(0.01, 0.1, 1.0))
        for value in (0.005, 0.05, 0.5, 5.0):
            histogram.observe(value)
        snapshot = histogram.snapshot()
        counts = [count for _, count in snapshot["buckets"]]
        assert counts == [1, 1, 1, 1]
        assert snapshot["buckets"][-1][0] == "+Inf"
        assert snapshot["count"] == 4
        assert snapshot["max"] == 5.0

    def test_window_keeps_newest(self):
        histogram = Histogram(DEFAULT_DURATION_BOUNDS, window=3)
        for value in (1.0, 2.0, 3.0, 4.0):
            histogram.observe(value)
        assert histogram.recent() == [2.0, 3.0, 4.0]
        assert histogram.count == 4  # lifetime, not windowed


class TestTraceSinks:
    def test_null_sink_is_inactive(self):
        sink = NullTraceSink()
        assert sink.active is False
        sink.emit({"type": "x"})  # no-op, no error
        sink.close()

    def test_ring_sink_caps_capacity(self):
        sink = RingTraceSink(capacity=2)
        for index in range(5):
            sink.emit({"type": "t", "position": index})
        assert [record["position"] for record in sink.records()] == [3, 4]
        assert len(sink) == 2
        with pytest.raises(ParameterError):
            RingTraceSink(capacity=0)

    def test_jsonl_sink_writes_strict_json_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlTraceSink(path)
        sink.emit({"type": "crash", "position": 3, "node": 1})
        sink.emit({"type": "recover", "position": 3, "node": 1})
        sink.close()
        sink.close()  # idempotent
        lines = path.read_text().splitlines()
        assert [json.loads(line)["type"] for line in lines] == [
            "crash",
            "recover",
        ]


class TestStageTimer:
    def test_accumulates_count_total_max(self):
        timer = StageTimer()
        timer.add("route", 0.25)
        timer.add("route", 0.5)
        timer.add("fsync", 1.0)
        snapshot = timer.snapshot()
        assert snapshot["route"] == {
            "count": 2,
            "total_s": 0.75,
            "max_s": 0.5,
        }
        assert snapshot["fsync"]["count"] == 1

    def test_merge_across_workers(self):
        first, second = StageTimer(), StageTimer()
        first.add("deliver", 1.0)
        second.add("deliver", 3.0)
        second.add("route", 0.5)
        merged = merge_stage_snapshots(
            [first.snapshot(), second.snapshot()]
        )
        assert merged["deliver"] == {
            "count": 2,
            "total_s": 4.0,
            "max_s": 3.0,
        }
        assert merged["route"]["count"] == 1


class TestTelemetryFacade:
    def test_disabled_facade_emits_nothing(self):
        telemetry = Telemetry.disabled()
        assert telemetry.trace_active is False
        telemetry.trace("crash", node=0)  # swallowed
        assert telemetry.snapshot()["stages"] == {}
        # Deterministic counters still run on a disabled facade.
        telemetry.registry.inc("crashes_total")
        assert telemetry.registry.counter("crashes_total") == 1

    def test_trace_stamps_coordinator_position(self):
        telemetry = Telemetry(sink=RingTraceSink())
        telemetry.position = 17
        telemetry.trace("gossip_round", round=2)
        telemetry.trace("crash", position=3, node=1)
        records = telemetry.sink.records()
        assert records[0]["position"] == 17
        assert records[1]["position"] == 3

    def test_stage_timers_are_thread_confined(self):
        telemetry = Telemetry()
        timers = {}

        def work(name: str) -> None:
            timer = telemetry.stage_timer()
            timers[name] = timer
            timer.add("deliver", 1.0)

        threads = [
            threading.Thread(target=work, args=(f"w{i}",))
            for i in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len({id(timer) for timer in timers.values()}) == 3
        assert telemetry.stage_snapshot()["deliver"]["count"] == 3


class TestSimulationWiring:
    """The registry/trace contents a real run must publish."""

    def test_run_publishes_lifecycle_counters_and_traces(self):
        telemetry = Telemetry(sink=RingTraceSink(capacity=100_000))
        config = ClusterConfig(
            n_nodes=3,
            seed=_SEED,
            checkpoint_every=500,
            failures=(NodeFailure(at_event=1000, node_id=1),),
        )
        simulation = ClusterSimulation(config, telemetry=telemetry)
        simulation.run(_events(3000))
        counters = simulation.metrics_snapshot()["counters"]
        assert counters["node_crashes{node=1}"] == 1
        assert counters["node_recoveries{node=1}"] == 1
        assert (
            sum(
                value
                for series, value in counters.items()
                if series.startswith("events_delivered_total")
            )
            == 3000
        )
        kinds = {record["type"] for record in telemetry.sink.records()}
        assert {
            "event_delivered",
            "checkpoint_fence",
            "crash",
            "recover",
        } <= kinds
        # Trace positions are stream-ordered.
        positions = [
            record["position"]
            for record in telemetry.sink.records()
            if record["type"] == "event_delivered"
        ]
        assert positions == sorted(positions)

    def test_router_traffic_exposed_as_gauges(self):
        telemetry = Telemetry()
        # Traffic is tracked toward hot promotion, so auto-detection
        # must be on; a huge threshold keeps every key cold.
        config = ClusterConfig(
            n_nodes=2, seed=_SEED, hot_key_threshold=10**9
        )
        simulation = ClusterSimulation(config, telemetry=telemetry)
        simulation.run(_events(2000))
        snapshot = simulation.metrics_snapshot()
        top = {
            series: value
            for series, value in snapshot["gauges"].items()
            if series.startswith("traffic_top")
        }
        assert 0 < len(top) <= 10
        assert all(value > 0 for value in top.values())
        assert snapshot["gauges"]["live_nodes"] == 2

    def test_stage_snapshot_covers_delivery_path(self):
        # Stages are timed per batch, but every plan still counts every
        # event through each stage (the process plan's bank_consume is
        # timed in the worker processes).
        for plan in (
            {"plan": "serial"},
            {"ingest_workers": 2},
            {"plan": "process"},
        ):
            telemetry = Telemetry()
            config = ClusterConfig(n_nodes=2, seed=_SEED, **plan)
            simulation = ClusterSimulation(config, telemetry=telemetry)
            simulation.run(_events(2000))
            stages = simulation.metrics_snapshot()["stages"]
            assert stages["route"]["count"] == 2000, plan
            assert stages["deliver"]["count"] == 2000, plan
            assert stages["bank_consume"]["count"] == 2000, plan


class TestDeliveryTimingIsPerBatch:
    """The delivery path takes its clock readings per batch, never per
    event, so telemetry stays cheap however long the stream is.

    Every ``StageTimer.add`` call is one timed section (a clock pair and
    one cell fold), so the call count per event bounds the timing work
    an event pays without measuring wall time — a count does not flap on
    a loaded machine.  At the default ``delivery_batch=64`` a run makes
    about 0.047 calls per event; timing any stage per event makes it at
    least 1.
    """

    _EVENTS = 20_000
    _MAX_CALLS_PER_EVENT = 0.1

    @pytest.mark.parametrize("n_nodes", [2, 4])
    @pytest.mark.parametrize(
        "plan", [{"plan": "serial"}, {"ingest_workers": 2}], ids=str
    )
    def test_stage_timer_calls_per_event(self, monkeypatch, n_nodes, plan):
        calls = []
        add = StageTimer.add

        def counting_add(self, *args, **kwargs):
            calls.append(None)
            add(self, *args, **kwargs)

        monkeypatch.setattr(StageTimer, "add", counting_add)
        config = ClusterConfig(n_nodes=n_nodes, seed=_SEED, **plan)
        simulation = ClusterSimulation(config, telemetry=Telemetry())
        simulation.run(
            zipf_workload(
                BitBudgetedRandom(_SEED),
                n_keys=2000,
                n_events=self._EVENTS,
            )
        )
        stages = simulation.metrics_snapshot()["stages"]
        assert stages["route"]["count"] == self._EVENTS
        per_event = len(calls) / self._EVENTS
        assert per_event <= self._MAX_CALLS_PER_EVENT, (
            f"{len(calls)} StageTimer.add calls for {self._EVENTS} "
            f"events ({per_event:.3f} per event)"
        )
