"""Names, the metric lists and the generator match BENCHMARK.json."""

import json
import re
from pathlib import Path

import ledger
import run
from workloads import N_KEYS, WORKLOADS, generate

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_every_name_is_well_formed_and_unique():
    names = (
        [w["name"] for w in SPEC["workloads"]]
        + [m["name"] for m in SPEC["end_to_end"]]
        + [m["name"] for m in SPEC["per_layer"]]
    )
    for name in names:
        assert NAME.fullmatch(name), name
    metric_names = names[len(SPEC["workloads"]):]
    assert len(set(metric_names)) == len(metric_names)


def test_spec_lists_what_the_benchmark_reports():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        tuple(entry) for entry in ledger.LAYER_METRICS
    ]
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_generator_is_deterministic_per_seed():
    first, again, other = generate(7, 3000), generate(7, 3000), generate(8, 3000)
    assert first.events == again.events
    assert first.events != other.events
    assert sum(first.totals.values()) == 3000
    assert sum(first.event_counts.values()) == 3000


def test_weighted_generator_counts_and_prefixes():
    stream = generate(3, 2000, mean_count=256)
    counts = [event.count for event in stream.events]
    assert min(counts) >= 1 and max(counts) <= 511
    assert sum(stream.totals.values()) == sum(counts)
    assert generate(3, 500, mean_count=256).events == stream.events[:500]
    assert all(event.key < f"page-{N_KEYS:06d}" for event in stream.events)
