"""WAL line encoding and ``SegmentedLog.storage_bytes``.

``storage_bytes`` keeps a running total per node: each call encodes
only the events appended since the previous call, so the figure must
still equal the full re-encoding of every retained event after any mix
of appends, fences, truncations and drops, whenever the calls fall.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.cluster import SegmentedLog
from repro.cluster.storage import decode_event, encode_event
from repro.stream.workload import KeyedEvent


def _reencoded_bytes(log: SegmentedLog, node_ids) -> int:
    return sum(
        len(encode_event(event)) + 1
        for node_id in node_ids
        for event in log.replay(node_id)
    )


@pytest.mark.parametrize("segment_events", [None, 1, 3, 16])
@pytest.mark.parametrize("seed", range(6))
def test_running_total_matches_reencoding(segment_events, seed):
    rng = random.Random(seed)
    log = SegmentedLog(segment_events=segment_events)
    live: set[int] = set()
    for _ in range(600):
        op = rng.random()
        if not live or op < 0.05:
            node_id = rng.randrange(4)
            log.register(node_id)
            live.add(node_id)
        elif op < 0.70:
            key = "k" * rng.randrange(1, 12) + str(rng.randrange(1000))
            event = KeyedEvent(key, rng.randrange(1, 600))
            log.append(rng.choice(sorted(live)), event)
        elif op < 0.78:
            log.fence(rng.choice(sorted(live)))
        elif op < 0.90:
            node_id = rng.choice(sorted(live))
            # Past the log's own sequence too: the re-fence branch.
            log.truncate_through(
                node_id, rng.randrange(log.sequence(node_id) + 3)
            )
        elif op < 0.93:
            node_id = rng.choice(sorted(live))
            log.drop(node_id)
            live.discard(node_id)
        if rng.random() < 0.3:
            assert log.storage_bytes() == _reencoded_bytes(log, live)
    assert log.storage_bytes() == _reencoded_bytes(log, live)


def test_repeated_calls_encode_nothing_new():
    log = SegmentedLog(segment_events=2)
    log.register(0)
    for key in ("a", "bb", "ccc"):
        log.append(0, KeyedEvent(key, 2))
    first = log.storage_bytes()
    assert first == _reencoded_bytes(log, [0])
    assert log.storage_bytes() == first
    log.truncate_through(0, 1)  # drops "a": the survivors are recounted
    assert log.storage_bytes() == _reencoded_bytes(log, [0]) < first
    log.fence(0)
    assert log.storage_bytes() == 0


#: Keys ``json.dumps`` escapes: non-ASCII, quotes, controls, astral.
_ODD_KEYS = ["page-7", "", "\u00e9 \u00fc", 'q"b\\t\t', "\U0001F600", "\x00"]


@pytest.mark.parametrize("key", _ODD_KEYS)
@pytest.mark.parametrize("count", [0, 1, 511, 10**20])
def test_event_line_is_the_compact_json_list(key, count):
    event = KeyedEvent(key, count)
    line = encode_event(event)
    assert line == json.dumps([key, count], separators=(",", ":"))
    assert decode_event(line) == event
