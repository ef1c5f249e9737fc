"""Tests for the bank's flattened batch-consume path.

``consume_counts`` must be bit-identical to calling ``record`` once per
pair in the same order.
"""

from __future__ import annotations

import pytest

from repro.analytics.counter_bank import CounterBank
from repro.core.factory import make_counter
from repro.errors import ParameterError


def _bank(seed: int = 11, track_truth: bool = True) -> CounterBank:
    return CounterBank(
        lambda rng: make_counter("simplified_ny", resolution=1024, rng=rng),
        seed=seed,
        track_truth=track_truth,
    )


_PAIRS = [
    ("a", 3),
    ("b", 700),
    ("a", 41),
    ("c", 0),
    ("d", 1),
    ("b", 5),
    ("a", 1200),
]


def _assert_same_bank(left: CounterBank, right: CounterBank) -> None:
    assert sorted(left.keys()) == sorted(right.keys())
    for key in left.keys():
        assert left.estimate(key) == right.estimate(key)
        assert left.truth(key) == right.truth(key)
    assert left.total_state_bits() == right.total_state_bits()


class TestConsumeCounts:
    def test_bit_identical_to_record_loop(self):
        looped, flattened = _bank(), _bank()
        for key, count in _PAIRS:
            looped.record(key, count)
        applied = flattened.consume_counts(_PAIRS)
        assert applied == sum(count for _, count in _PAIRS)
        _assert_same_bank(looped, flattened)

    def test_zero_counts_do_not_materialize(self):
        bank = _bank()
        assert bank.consume_counts([("z", 0)]) == 0
        assert "z" not in bank

    def test_negative_count_rejected(self):
        with pytest.raises(ParameterError):
            _bank().consume_counts([("a", 1), ("b", -2)])

    def test_untracked_truth(self):
        bank = _bank(track_truth=False)
        assert bank.consume_counts([("a", 10), ("a", 5)]) == 15
        with pytest.raises(ParameterError):
            bank.truth("a")

