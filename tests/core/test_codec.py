"""Tests for snapshot serialization, including corruption injection."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.analytics.counter_bank import CounterBank
from repro.cluster import checkpoint, rebalance, storage, transport
from repro.cluster.checkpoint import BankCheckpoint
from repro.cluster.node import CounterTemplate
from repro.cluster.rebalance import MigrationBatch
from repro.core import codec
from repro.core.codec import (
    decode_checksummed_line,
    decode_snapshot,
    encode_checksummed_line,
    encode_snapshot,
    restore_counter,
)
from repro.core.factory import COUNTER_TYPES, make_counter
from repro.core.morris import MorrisCounter
from repro.core.nelson_yu import NelsonYuCounter
from repro.core.simplified_ny import SimplifiedNYCounter
from repro.errors import StateError


def _roundtrip(counter):
    return restore_counter(encode_snapshot(counter.snapshot()), seed=99)


#: One representative parameterization per registered counter family.
_FAMILY_PARAMS = {
    "exact": {},
    "saturating": {"bits": 12},
    "morris": {"a": 0.25},
    "morris_plus": {"a": 0.25},
    "nelson_yu": {"epsilon": 0.3, "delta_exponent": 4, "mergeable": True},
    "simplified_ny": {"resolution": 128, "mergeable": True},
    "csuros": {"d": 8},
}


class TestEveryFamilyRoundtrips:
    def test_param_table_covers_registry(self):
        assert set(_FAMILY_PARAMS) == set(COUNTER_TYPES)

    @pytest.mark.parametrize("algorithm", sorted(_FAMILY_PARAMS))
    def test_roundtrip(self, algorithm):
        counter = make_counter(
            algorithm, **_FAMILY_PARAMS[algorithm], seed=7
        )
        counter.add(3000)
        restored = _roundtrip(counter)
        assert restored.algorithm_name == algorithm
        assert restored.estimate() == counter.estimate()
        assert restored.n_increments == counter.n_increments
        assert restored.state_bits() == counter.state_bits()
        assert restored.snapshot() == counter.snapshot()

    @pytest.mark.parametrize("algorithm", sorted(_FAMILY_PARAMS))
    def test_restored_counter_keeps_counting(self, algorithm):
        counter = make_counter(
            algorithm, **_FAMILY_PARAMS[algorithm], seed=8
        )
        counter.add(500)
        restored = _roundtrip(counter)
        restored.add(500)
        assert restored.n_increments == 1000


class TestRoundtrip:
    def test_morris(self):
        counter = MorrisCounter(0.25, seed=0)
        counter.add(5000)
        restored = _roundtrip(counter)
        assert restored.estimate() == counter.estimate()
        assert restored.n_increments == 5000

    def test_nelson_yu_with_history(self):
        counter = NelsonYuCounter(0.3, 4, mergeable=True, seed=1)
        counter.add(20_000)
        restored = _roundtrip(counter)
        assert restored.estimate() == counter.estimate()
        # Mergeable history survives the roundtrip: merging still works.
        other = NelsonYuCounter(0.3, 4, mergeable=True, seed=2)
        other.add(1000)
        restored.merge_from(other)
        assert restored.n_increments == 21_000

    def test_simplified(self):
        counter = SimplifiedNYCounter(128, t_max=12, seed=3)
        counter.add(30_000)
        restored = _roundtrip(counter)
        assert (restored.y, restored.t) == (counter.y, counter.t)

    def test_restored_counter_continues(self):
        counter = MorrisCounter(0.25, seed=4)
        counter.add(1000)
        restored = _roundtrip(counter)
        restored.add(1000)
        assert restored.n_increments == 2000

    def test_replicas_do_not_share_randomness(self):
        counter = MorrisCounter(0.25, seed=5)
        counter.add(200)
        line = encode_snapshot(counter.snapshot())
        a = restore_counter(line, seed=1)
        b = restore_counter(line, seed=2)
        a.add(50_000)
        b.add(50_000)
        assert a.x != b.x  # overwhelmingly likely with distinct streams


#: Records written before the CRC-32 envelope, byte for byte as the
#: SplitMix64 ``"checksum"`` encoder produced them.  Each is rebuilt by
#: :func:`_golden_object` below.
_LEGACY_LINES = {
    "snapshot": '{"checksum":1467519622183351816,"payload":{"algorithm":"morris","n":100,"params":{"a":0.25},"state":{"x":18},"v":1}}',
    "checkpoint": '{"checksum":5280118730519901234,"payload":{"counters":{"a":"{\\"checksum\\":16742861588373499401,\\"payload\\":{\\"algorithm\\":\\"exact\\",\\"n\\":2,\\"params\\":{},\\"state\\":{\\"value\\":2},\\"v\\":1}}","b":"{\\"checksum\\":16690568873733991227,\\"payload\\":{\\"algorithm\\":\\"exact\\",\\"n\\":5,\\"params\\":{},\\"state\\":{\\"value\\":5},\\"v\\":1}}"},"meta":{"node_id":0},"seed":3,"template":{"algorithm":"exact","params":{}},"topology":null,"truth":{"a":2,"b":5},"v":1}}',
    "manifest": '{"checksum":7056763638600662084,"payload":{"manifest_version":1,"topology":{"epoch":2,"nodes":[0,1]}}}',
    "migration": '{"checksum":14936542808591745379,"payload":{"counters":{"a":"{\\"checksum\\":16742861588373499401,\\"payload\\":{\\"algorithm\\":\\"exact\\",\\"n\\":2,\\"params\\":{},\\"state\\":{\\"value\\":2},\\"v\\":1}}"},"epoch":2,"meta":{},"source":0,"target":1,"truth":{"a":2},"v":1}}',
}

#: Every record kind's checksum seed.
_KIND_SEEDS = {
    "snapshot": codec._CHECKSUM_SEED,
    "checkpoint": checkpoint._CHECKSUM_SEED,
    "migration": rebalance._BATCH_CHECKSUM_SEED,
    "manifest": storage._MANIFEST_CHECKSUM_SEED,
    "frame": transport._FRAME_CHECKSUM_SEED,
}


def _decode_manifest(line: str):
    return decode_checksummed_line(
        line, storage._MANIFEST_CHECKSUM_SEED, kind="cluster manifest"
    )


#: Each record kind's own decoder, schema checks included.
_DECODERS = {
    "snapshot": decode_snapshot,
    "checkpoint": BankCheckpoint.decode,
    "migration": MigrationBatch.decode,
    "manifest": _decode_manifest,
    "frame": lambda line: transport.decode_frame_payload(line.encode()),
}


def _golden_object(kind: str):
    """What each golden line decodes to, built by the current code."""
    template = CounterTemplate("exact")
    bank = CounterBank(template.build, seed=3)
    bank.record("a", 2)
    bank.record("b", 5)
    if kind == "snapshot":
        counter = MorrisCounter(0.25, seed=0)
        counter.add(100)
        return counter.snapshot()
    if kind == "checkpoint":
        return BankCheckpoint.capture(bank, template, meta={"node_id": 0})
    if kind == "manifest":
        return {
            "manifest_version": 1,
            "topology": {"epoch": 2, "nodes": [0, 1]},
        }
    if kind == "migration":
        return MigrationBatch(
            source=0,
            target=1,
            epoch=2,
            snapshots={"a": bank.counter("a").snapshot()},
            truth={"a": 2},
        )
    return {"v": transport.FRAME_VERSION, "type": "drain_ack", "node": 1}


def _current_line(kind: str) -> str:
    obj = _golden_object(kind)
    if kind == "snapshot":
        return encode_snapshot(obj)
    if kind in ("checkpoint", "migration"):
        return obj.encode()
    return encode_checksummed_line(obj, _KIND_SEEDS[kind])


def _legacy_line(body, seed: int) -> str:
    payload = codec._canonical(body)
    checksum = codec._legacy_checksum(payload, seed)
    return f'{{"checksum":{checksum},"payload":{payload}}}'


def _corrupt_digit(line: str, index: int) -> str:
    digit = str((int(line[index]) + 1) % 10)
    return line[:index] + digit + line[index + 1:]


def _last_digit(line: str) -> int:
    return max(i for i, ch in enumerate(line) if ch.isdigit())


class TestEnvelope:
    def test_line_is_the_sorted_wrapper(self):
        body = {"b": [1, 2], "a": {"z": None, "y": "é"}}
        line = encode_checksummed_line(body, 7)
        wrapper = json.loads(line)
        assert set(wrapper) == {"crc32", "payload"}
        assert line == json.dumps(
            wrapper, sort_keys=True, separators=(",", ":")
        )
        assert decode_checksummed_line(line, 7, kind="record") == body

    @pytest.mark.parametrize("kind", sorted(_KIND_SEEDS))
    def test_every_kind_writes_crc32_only(self, kind):
        assert '"checksum"' not in _current_line(kind)


class TestLegacyRecords:
    @pytest.mark.parametrize("kind", sorted(_LEGACY_LINES))
    def test_golden_line_is_the_legacy_envelope(self, kind):
        line = _LEGACY_LINES[kind]
        body = json.loads(line)["payload"]
        assert _legacy_line(body, _KIND_SEEDS[kind]) == line

    @pytest.mark.parametrize("kind", sorted(_LEGACY_LINES))
    def test_golden_line_decodes_to_the_same_record(self, kind):
        decoded = _DECODERS[kind](_LEGACY_LINES[kind])
        assert decoded == _golden_object(kind)
        assert _DECODERS[kind](_current_line(kind)) == decoded

    def test_missing_checksum_is_malformed(self):
        with pytest.raises(StateError, match="malformed"):
            decode_snapshot('{"payload":{"v":1}}')


class TestCorruptionInjection:
    def _line(self) -> str:
        counter = MorrisCounter(0.25, seed=0)
        counter.add(100)
        return encode_snapshot(counter.snapshot())

    def test_bit_flip_detected(self):
        line = self._line()
        corrupted = line.replace('"x":', '"x": 9', 1)
        with pytest.raises(StateError):
            decode_snapshot(corrupted)

    def test_truncation_detected(self):
        with pytest.raises(StateError):
            decode_snapshot(self._line()[:-10])

    def test_payload_tamper_detected(self):
        wrapper = json.loads(self._line())
        wrapper["payload"]["n"] = 999_999
        with pytest.raises(StateError, match="checksum"):
            decode_snapshot(json.dumps(wrapper))

    def test_version_mismatch(self):
        wrapper = json.loads(self._line())
        wrapper["payload"]["v"] = 42
        # Re-frame with a valid checksum so the version check is reached.
        from repro.core.codec import _CHECKSUM_SEED, encode_checksummed_line

        line = encode_checksummed_line(wrapper["payload"], _CHECKSUM_SEED)
        with pytest.raises(StateError, match="version"):
            decode_snapshot(line)

    def test_unknown_algorithm(self):
        wrapper = json.loads(self._line())
        wrapper["payload"]["algorithm"] = "hyperloglog"
        from repro.core.codec import _CHECKSUM_SEED, encode_checksummed_line

        line = encode_checksummed_line(wrapper["payload"], _CHECKSUM_SEED)
        with pytest.raises(StateError, match="unknown algorithm"):
            decode_snapshot(line)

    def test_not_json(self):
        with pytest.raises(StateError):
            decode_snapshot("definitely not json")

    @pytest.mark.parametrize("envelope", ["legacy", "crc32"])
    @pytest.mark.parametrize("kind", sorted(_LEGACY_LINES))
    def test_every_kind_and_envelope_detects_corruption(self, kind, envelope):
        if envelope == "legacy":
            line = _LEGACY_LINES[kind]
        else:
            line = _current_line(kind)
        with pytest.raises(StateError):
            _DECODERS[kind](line[:-10])
        # A payload digit (the line stays valid JSON) ...
        with pytest.raises(StateError, match="checksum"):
            _DECODERS[kind](_corrupt_digit(line, _last_digit(line)))
        # ... and the last digit of the claimed checksum itself.
        claimed = line.index(',"payload":') - 1
        with pytest.raises(StateError, match="checksum"):
            _DECODERS[kind](_corrupt_digit(line, claimed))

    @pytest.mark.parametrize(
        "writer,reader",
        [(w, r) for w in _KIND_SEEDS for r in _KIND_SEEDS if w != r],
    )
    def test_other_kinds_seed_is_refused(self, writer, reader):
        """A body the reader would accept, framed under another kind's
        seed, fails on the checksum alone — in either envelope."""
        body = json.loads(_current_line(reader))["payload"]
        seed = _KIND_SEEDS[writer]
        for line in (
            encode_checksummed_line(body, seed),
            _legacy_line(body, seed),
        ):
            with pytest.raises(StateError, match="checksum"):
                _DECODERS[reader](line)

    def test_folded_seeds_are_pairwise_distinct(self):
        """Every ``*CHECKSUM_SEED`` in the library, present or future,
        must keep a distinct CRC-32 start value."""
        seeds = {}
        for path in Path(codec.__file__).parents[1].rglob("*.py"):
            for match in re.finditer(
                r"^(_\w*CHECKSUM_SEED) = (0x[0-9A-Fa-f_]+)",
                path.read_text(encoding="utf-8"),
                re.MULTILINE,
            ):
                seeds[f"{path.stem}.{match[1]}"] = int(match[2], 16)
        assert sorted(seeds.values()) == sorted(_KIND_SEEDS.values())
        folded = [codec._crc_start(seed) for seed in seeds.values()]
        assert len(set(folded)) == len(folded)
        assert all(0 <= value < 1 << 32 for value in folded)
