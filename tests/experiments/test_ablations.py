"""Tests for the design-choice ablations."""

from __future__ import annotations

import pytest

from repro.experiments.ablations import (
    ChernoffAblationConfig,
    TransitionAblationConfig,
    run_chernoff_ablation,
    run_rounding_ablation,
    run_transition_ablation,
)
from repro.experiments.config import ExperimentContext


class TestChernoffAblation:
    def test_dispersion_falls_with_c(self):
        result = run_chernoff_ablation(
            ChernoffAblationConfig(
                trials=150, c_values=(0.25, 3.0, 6.0)
            ),
            ExperimentContext(seed=1),
        )
        dispersions = [row[1] for row in result.rows]
        assert dispersions[0] > dispersions[-1]

    def test_y_bits_grow_with_c(self):
        result = run_chernoff_ablation(
            ChernoffAblationConfig(trials=60, c_values=(1.5, 12.0)),
            ExperimentContext(seed=2),
        )
        assert result.rows[1][3] > result.rows[0][3]

    def test_default_c_is_stable(self):
        result = run_chernoff_ablation(
            ChernoffAblationConfig(trials=150, c_values=(6.0,)),
            ExperimentContext(seed=3),
        )
        c, dispersion, failure, _ = result.rows[0]
        assert c == 6.0
        assert dispersion <= 0.05
        assert failure == 0.0

    def test_table_renders(self):
        result = run_chernoff_ablation(
            ChernoffAblationConfig(trials=30, c_values=(6.0,))
        )
        assert "epoch dispersion" in result.table()


class TestRoundingAblation:
    def test_accuracy_unchanged_by_rounding(self):
        result = run_rounding_ablation(
            trials=150, context=ExperimentContext(seed=4)
        )
        dyadic, exact = result.rows
        assert dyadic[1] == pytest.approx(exact[1], abs=0.05)

    def test_rounding_costs_at_most_one_bit(self):
        result = run_rounding_ablation(
            trials=150, context=ExperimentContext(seed=5)
        )
        dyadic, exact = result.rows
        assert dyadic[2] - exact[2] <= 1.5


@pytest.fixture(scope="module")
def default_transition_ablation():
    """The default ablation is deterministic and slow, so compute it once
    for every test that reads it."""
    return run_transition_ablation()


class TestTransitionAblation:
    def test_appendix_a_scale_leaks(self, default_transition_ablation):
        result = default_transition_ablation
        label, transition, worst, ratio = result.rows[0]
        assert "Appendix A" in label
        assert ratio > 1000.0

    def test_paper_choice_safe(self, default_transition_ablation):
        result = default_transition_ablation
        label, transition, worst, ratio = result.rows[2]
        assert "8/a" in label
        assert ratio < 1.0

    def test_monotone_in_transition(self, default_transition_ablation):
        """A longer prefix can only lower the worst residual failure."""
        result = default_transition_ablation
        worsts = [row[2] for row in result.rows]
        assert worsts == sorted(worsts, reverse=True)

    def test_custom_config(self):
        result = run_transition_ablation(
            TransitionAblationConfig(epsilon=0.15, delta=1e-10)
        )
        assert result.a > 0
        assert "8/a" in result.table()
