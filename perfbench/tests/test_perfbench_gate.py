"""The correctness gate trips on wrong replies and lost events."""

import io
import json

from gate import Gate
from workloads import generate, make_stream

EXPECTED = {"key": "page-000000", "estimate": 12.0, "truth": 12,
            "staleness": {"consistency": "replica", "replica": 0}}


def gate():
    return Gate(out=io.StringIO())


def test_matching_reply_passes():
    g = gate()
    g.check_reply(200, json.dumps(EXPECTED).encode(), EXPECTED, "read")
    assert (g.attempted, g.failed) == (1, 0)


def test_tampered_reply_fails():
    g = gate()
    tampered = dict(EXPECTED, estimate=13.0)
    g.check_reply(200, json.dumps(tampered).encode(), EXPECTED, "read")
    assert (g.attempted, g.failed) == (1, 1)
    assert "read" in g.failures[0]


def test_non_strict_json_and_bad_status_fail():
    g = gate()
    g.check_reply(200, b'{"estimate": NaN}', EXPECTED, "nan")
    g.check_reply(500, json.dumps(EXPECTED).encode(), EXPECTED, "status")
    assert g.failed == 2
    assert g.ok_ratio == 0.0


def _run(events):
    from repro.cluster import ClusterConfig, ClusterSimulation, default_template

    sim = ClusterSimulation(
        ClusterConfig(n_nodes=2, template=default_template("simplified_ny"), plan="serial")
    )
    sim.run(events)
    return sim.aggregator.global_view()


def test_all_events_accounted_passes():
    stream = generate(5, 400)
    g = gate()
    g.check_truth(_run(stream.events).truth, stream.totals, stream.event_counts, "full")
    assert (g.attempted, g.failed) == (400, 0)


def test_dropped_event_fails():
    stream = generate(5, 400)
    dropped = stream.events[0]
    g = gate()
    g.check_truth(_run(stream.events[1:]).truth, stream.totals, stream.event_counts, "drop")
    assert g.failed == stream.event_counts[dropped.key]
    assert dropped.key in g.failures[0]


def test_epsilon_check_counts_keys_outside():
    stream = make_stream(generate(1, 100).events)
    g = gate()
    exact = {key: float(total) for key, total in stream.totals.items()}
    assert g.check_epsilon(exact, stream.totals, "exact") == 0.0
    skewed = {key: total * 2.0 for key, total in stream.totals.items()}
    assert g.check_epsilon(skewed, stream.totals, "skewed") == 1.0
    assert (g.attempted, g.failed) == (2, 1)
