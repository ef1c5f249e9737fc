"""Skip-ahead equivalence: ``add(n)`` versus the per-unit reference arm.

Every counter's ``add(n)`` fast-forwards through
:class:`~repro.rng.skip.GeometricSkipper`; ``add_per_unit(n)`` pays one
coin flip per unit.  The contract this file pins:

* deterministic counters are *bit-identical* between the two arms;
* :class:`~repro.core.csuros.CsurosCounter` in the capped coin regime
  (small exponents) is bit-identical too, because the skipper replays
  the per-unit bit stream exactly;
* every approximate template is *distributionally* equivalent — same
  mean (unbiased for the true count) and comparable spread;
* skip-ahead never reports more random bits than per-unit, so the bit
  accounting stays an honest lower bound on simulation cost.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.node import default_template
from repro.core.factory import make_counter
from repro.rng.bitstream import BitBudgetedRandom
from repro.stream.workload import weighted_zipf_workload

_SMALL_SEEDS = st.integers(min_value=0, max_value=2**32 - 1)

#: One parameterization per approximate counter family (the cluster
#: presets where one exists, plain defaults otherwise).
_APPROX_TEMPLATES: dict[str, dict] = {
    "morris": {"a": 0.05},
    "morris_plus": {"a": 0.05},
    "csuros": {"d": 8},
    "simplified_ny": {"resolution": 1024},
    "nelson_yu": {"epsilon": 0.1, "delta_exponent": 10},
}

_APPROX_CASES = sorted(_APPROX_TEMPLATES.items())


def _mean_std(values: list[float]) -> tuple[float, float]:
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
    return mean, math.sqrt(var)


class TestDeterministicBitIdentity:
    @pytest.mark.parametrize("n", [0, 1, 7, 1000])
    def test_exact_counter(self, n):
        skip = make_counter("exact", seed=3)
        unit = make_counter("exact", seed=3)
        skip.add(n)
        unit.add_per_unit(n)
        assert skip.estimate() == unit.estimate() == float(n)
        assert skip.n_increments == unit.n_increments == n

    def test_saturating_counter(self):
        skip = make_counter("saturating", bits=8, seed=3)
        unit = make_counter("saturating", bits=8, seed=3)
        skip.add(1000)
        unit.add_per_unit(1000)
        assert skip.estimate() == unit.estimate() == 255.0
        assert skip.rng.bits_consumed == unit.rng.bits_consumed == 0


class TestCsurosCappedRegime:
    """With ``d=4`` and ``n <= 64`` the exponent never leaves the capped
    coin regime (``X <= 64`` keeps ``e = X >> 4 <= 4``), where the
    skipper replays the per-unit bit stream exactly — so ``add(n)`` is
    bit-identical to ``n`` increments at the same seed, state, estimate
    and bit bill included."""

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(seed=_SMALL_SEEDS, n=st.integers(min_value=0, max_value=64))
    def test_add_bit_identical_to_increments(self, seed, n):
        skip = make_counter("csuros", d=4, seed=seed)
        unit = make_counter("csuros", d=4, seed=seed)
        skip.add(n)
        unit.add_per_unit(n)
        assert skip.x == unit.x
        assert skip.estimate() == unit.estimate()
        assert skip.n_increments == unit.n_increments == n
        assert skip.rng.bits_consumed == unit.rng.bits_consumed


class TestDistributionalEquivalence:
    """``add(n)`` and ``add_per_unit(n)`` on independent streams must
    agree as distributions: matching means (both unbiased for the true
    count) and comparable spread.  Seeds are fixed, so this is a
    deterministic check of a statistical property."""

    @pytest.mark.parametrize("algorithm,params", _APPROX_CASES)
    def test_add_matches_per_unit_distribution(self, algorithm, params):
        total, runs = 4096, 80
        skip_estimates, unit_estimates = [], []
        for i in range(runs):
            skip = make_counter(algorithm, **params, seed=1000 + i)
            unit = make_counter(algorithm, **params, seed=500_000 + i)
            skip.add(total)
            unit.add_per_unit(total)
            skip_estimates.append(skip.estimate())
            unit_estimates.append(unit.estimate())
        skip_mean, skip_std = _mean_std(skip_estimates)
        unit_mean, unit_std = _mean_std(unit_estimates)
        slack = 0.005 * total
        se = math.sqrt((skip_std**2 + unit_std**2) / runs)
        assert abs(skip_mean - unit_mean) <= 6 * se + slack
        # Both arms are unbiased for the true count.
        assert abs(skip_mean - total) <= 6 * skip_std / math.sqrt(runs) + slack
        assert abs(unit_mean - total) <= 6 * unit_std / math.sqrt(runs) + slack
        # Comparable spread (sample stds over 80 runs agree within 2x).
        assert skip_std <= 2.0 * unit_std + slack
        assert unit_std <= 2.0 * skip_std + slack


class TestBitMetering:
    @pytest.mark.parametrize("algorithm,params", _APPROX_CASES)
    def test_skip_ahead_never_reports_more_bits(self, algorithm, params):
        total = 50_000
        skip = make_counter(algorithm, **params, seed=7)
        unit = make_counter(algorithm, **params, seed=7)
        skip.add(total)
        unit.add_per_unit(total)
        assert skip.n_increments == unit.n_increments == total
        assert skip.rng.bits_consumed <= unit.rng.bits_consumed


class TestWeightedStreamBitBill:
    """Skip-ahead pays a small fraction of per-unit's random bits on a
    heavy-count stream.

    Every key of a weighted Zipf feed (mean weight 256) gets a ``morris``
    cluster-preset counter; each arm draws all of its counters from one
    shared :class:`~repro.rng.bitstream.BitBudgetedRandom`, so its
    ``bits_consumed`` is the whole stream's random-bit bill.  Bits are a
    deterministic, machine-independent proxy for the draws ``add(n)``
    saves, so the bound cannot flap on a loaded box.  Per-unit spends
    68,310,958 bits and ``add(n)`` 3,236,392 (21.1x) on the 1,289,788
    increments; the bound sits at 0.8x that ratio.
    """

    _SEED = 2020_10_06
    _MIN_RATIO = 16.8

    def _bits(self, per_unit: bool) -> tuple[int, int]:
        template = default_template("morris")
        rng = BitBudgetedRandom(self._SEED)
        counters: dict[str, object] = {}
        increments = 0
        for event in weighted_zipf_workload(
            BitBudgetedRandom(self._SEED),
            n_keys=2000,
            n_events=5000,
            exponent=1.1,
            mean_count=256,
        ):
            counter = counters.get(event.key)
            if counter is None:
                counter = counters[event.key] = template.build(rng)
            if per_unit:
                counter.add_per_unit(event.count)
            else:
                counter.add(event.count)
            increments += event.count
        return rng.bits_consumed, increments

    def test_add_spends_at_most_a_sixteenth_of_per_unit_bits(self):
        unit_bits, unit_increments = self._bits(per_unit=True)
        skip_bits, skip_increments = self._bits(per_unit=False)
        assert skip_increments == unit_increments > 5000
        assert skip_bits * self._MIN_RATIO <= unit_bits, (
            f"add(n) spent {skip_bits} bits against per-unit's "
            f"{unit_bits} ({unit_bits / max(skip_bits, 1):.1f}x, "
            f"bound {self._MIN_RATIO}x)"
        )
