"""Self-time arithmetic and the span recorder."""

import threading

import ledger


def span(name, start, end, parent, index, thread=1):
    return [name, start, end, parent, thread, index]


def test_self_time_subtracts_nested_children():
    spans = [
        span("root", 0.0, 10.0, -1, 0),
        span("a", 1.0, 4.0, 0, 1),
        span("b", 5.0, 9.0, 0, 2),
        span("c", 6.0, 7.0, 2, 3),
    ]
    assert ledger.self_times(spans) == [3.0, 3.0, 3.0, 1.0]


def test_self_time_counts_overlapping_children_once():
    spans = [
        span("root", 0.0, 10.0, -1, 0),
        span("a", 1.0, 4.0, 0, 1, thread=2),
        span("b", 3.0, 6.0, 0, 2, thread=3),
    ]
    assert ledger.self_times(spans)[0] == 5.0


def test_summary_and_unattributed_time():
    spans = [
        span("driver.run", 0.0, 8.0, -1, 0),
        span("router.route", 1.0, 2.0, 0, 1),
        span("router.route", 3.0, 4.0, 0, 2),
        span("node.submit", 4.0, 7.0, -1, 3, thread=9),
    ]
    metrics = ledger.trial_ledger(spans, {"driver.events": 2}, thread=1, wall_s=10.0)
    assert metrics["router.route.calls"] == 2
    assert metrics["router.route.self_s"] == 2.0
    assert metrics["driver.run.self_s"] == 6.0
    assert metrics["node.submit.self_s"] == 3.0
    assert metrics["driver.events"] == 2
    # Only spans on the trial's thread count against its wall time.
    assert metrics["unattributed_s"] == 2.0
    assert metrics["checkpoint.calls"] == 0.0


def test_http_wait_is_client_time_minus_handler_time():
    spans = [
        span("http.client", 0.0, 0.05, -1, 0),
        span("http.handler", 0.001, 0.004, -1, 1, thread=2),
    ]
    metrics = ledger.trial_ledger(spans, {}, thread=1, wall_s=0.05)
    assert abs(metrics["http.wait_s"] - 0.047) < 1e-12


class _Layer:
    def outer(self, n):
        return self.inner(n) + 1

    def inner(self, n):
        return n * 2


def test_wrap_records_nested_spans_and_counts_then_unwraps():
    tracer = ledger.Tracer()
    original = _Layer.__dict__["outer"]
    tracer.wrap(_Layer, "outer", "outer", lambda result, self, n: {"outer.n": n})
    tracer.wrap(_Layer, "inner", "inner")
    layer = _Layer()
    assert layer.outer(3) == 7
    assert tracer.spans == []  # records only while active
    tracer.active = True
    assert layer.outer(3) == 7
    tracer.active = False
    outer, inner = sorted(tracer.spans, key=lambda s: s[5])
    assert (outer[0], inner[0]) == ("outer", "inner")
    assert inner[3] == outer[5] and outer[3] == -1
    assert outer[4] == inner[4] == threading.get_ident()
    assert tracer.counts["outer.n"] == 3
    tracer.unwrap_all()
    assert _Layer.__dict__["outer"] is original
