"""Unit tests for repro.sim.stats."""

import math
import random
import sys

import pytest

from repro.errors import SimulationError
from repro.sim.stats import (
    EmpiricalCdf,
    RunningStats,
    TimeWeightedStats,
    _t_quantile,
    batch_means_ci,
    relative_ci_width,
)


class TestRunningStats:
    def test_empty_mean_raises(self):
        with pytest.raises(SimulationError):
            RunningStats().mean

    def test_single_value(self):
        stats = RunningStats()
        stats.add(3.0)
        assert stats.mean == 3.0
        assert stats.minimum == 3.0
        assert stats.maximum == 3.0

    def test_variance_needs_two_values(self):
        stats = RunningStats()
        stats.add(1.0)
        with pytest.raises(SimulationError):
            stats.variance

    def test_matches_naive_computation(self):
        rng = random.Random(5)
        values = [rng.uniform(-10, 10) for _ in range(500)]
        stats = RunningStats()
        stats.extend(values)
        mean = sum(values) / len(values)
        variance = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
        assert stats.mean == pytest.approx(mean)
        assert stats.variance == pytest.approx(variance)
        assert stats.stddev == pytest.approx(math.sqrt(variance))
        assert stats.minimum == min(values)
        assert stats.maximum == max(values)

    def test_count_tracks_additions(self):
        stats = RunningStats()
        stats.extend([1.0, 2.0, 3.0])
        assert stats.count == 3


class TestTimeWeightedStats:
    def test_constant_signal(self):
        stats = TimeWeightedStats(initial_value=2.0)
        assert stats.mean(10.0) == 2.0

    def test_step_signal(self):
        stats = TimeWeightedStats()
        stats.update(5.0, 1.0)  # 0 for [0, 5), 1 for [5, 10)
        assert stats.mean(10.0) == pytest.approx(0.5)

    def test_multiple_steps(self):
        stats = TimeWeightedStats()
        stats.update(2.0, 4.0)
        stats.update(6.0, 1.0)
        # areas: 0*2 + 4*4 + 1*2 = 18 over 8
        assert stats.mean(8.0) == pytest.approx(18.0 / 8.0)

    def test_maximum_tracked(self):
        stats = TimeWeightedStats()
        stats.update(1.0, 7.0)
        stats.update(2.0, 3.0)
        assert stats.maximum == 7.0

    def test_time_going_backwards_rejected(self):
        stats = TimeWeightedStats()
        stats.update(5.0, 1.0)
        with pytest.raises(SimulationError):
            stats.update(4.0, 2.0)

    def test_mean_at_start_is_current_value(self):
        stats = TimeWeightedStats(initial_time=3.0, initial_value=9.0)
        assert stats.mean(3.0) == 9.0


class TestEmpiricalCdf:
    def test_empty_rejected(self):
        with pytest.raises(SimulationError):
            EmpiricalCdf([])

    def test_probability_below(self):
        cdf = EmpiricalCdf([0.1, 0.5, 0.9, 1.0])
        assert cdf.probability_below(0.5) == 0.25  # strictly below
        assert cdf.probability_below(0.95) == 0.75
        assert cdf.probability_below(2.0) == 1.0
        assert cdf.probability_below(0.0) == 0.0

    def test_quantile(self):
        cdf = EmpiricalCdf(list(range(100)))
        assert cdf.quantile(0.0) == 0
        assert cdf.quantile(0.5) == 50
        assert cdf.quantile(1.0) == 99

    def test_quantile_out_of_range_rejected(self):
        cdf = EmpiricalCdf([1.0])
        with pytest.raises(SimulationError):
            cdf.quantile(1.5)

    def test_evaluate_returns_monotone_curve(self):
        rng = random.Random(3)
        cdf = EmpiricalCdf([rng.random() for _ in range(200)])
        grid = [i / 20 for i in range(21)]
        values = [p for _, p in cdf.evaluate(grid)]
        assert values == sorted(values)

    def test_sample_count(self):
        assert EmpiricalCdf([1, 2, 3]).sample_count == 3


class TestBatchMeansCi:
    def test_empty_rejected(self):
        with pytest.raises(SimulationError):
            batch_means_ci([])

    def test_short_series_returns_zero_halfwidth(self):
        mean, half = batch_means_ci([1.0, 2.0, 3.0], batches=20)
        assert mean == 2.0
        assert half == 0.0

    def test_constant_series_zero_width(self):
        mean, half = batch_means_ci([5.0] * 200)
        assert mean == 5.0
        assert half == 0.0

    def test_iid_series_interval_covers_true_mean(self):
        rng = random.Random(11)
        samples = [rng.gauss(10.0, 2.0) for _ in range(2000)]
        mean, half = batch_means_ci(samples)
        assert abs(mean - 10.0) < half + 0.3
        assert half > 0

    def test_wider_confidence_wider_interval(self):
        rng = random.Random(11)
        samples = [rng.gauss(0.0, 1.0) for _ in range(1000)]
        _, half95 = batch_means_ci(samples, confidence=0.95)
        _, half99 = batch_means_ci(samples, confidence=0.99)
        assert half99 > half95

    def test_relative_ci_width(self):
        rng = random.Random(11)
        samples = [rng.gauss(10.0, 1.0) for _ in range(1000)]
        rel = relative_ci_width(samples)
        assert rel is not None
        assert 0 < rel < 0.05  # well under the paper's 4%

    def test_relative_ci_width_zero_mean(self):
        assert relative_ci_width([0.0] * 100) is None


class TestTQuantile:
    """Exact Student-t with scipy, the normal z value without it."""

    @pytest.mark.parametrize(
        "confidence, expected",
        [(0.90, 1.7291328115213682), (0.95, 2.0930240544083087),
         (0.99, 2.8609346064649794)],
    )
    def test_exact_t_with_scipy(self, confidence, expected):
        pytest.importorskip("scipy.stats")
        assert _t_quantile(confidence, 19) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize(
        "confidence, expected",
        [(0.90, 1.645), (0.95, 1.960), (0.99, 2.576), (0.80, 1.960)],
    )
    def test_normal_z_without_scipy(self, monkeypatch, confidence, expected):
        # A None entry makes ``import scipy.stats`` raise ImportError.
        monkeypatch.setitem(sys.modules, "scipy.stats", None)
        assert _t_quantile(confidence, 19) == expected
