"""Statistics collection for simulation outputs.

Provides the accumulators the experiment harness relies on:

* :class:`RunningStats` — numerically stable (Welford) moments of a
  sample stream.
* :class:`TimeWeightedStats` — time-integrated average of a piecewise
  constant signal (e.g. queue length, utilization between samples).
* :class:`EmpiricalCdf` — the paper's headline metric is the cumulative
  frequency of the per-interval maximum server utilization; this class
  turns a sample series into that curve.
* :func:`batch_means_ci` — confidence intervals for steady-state series
  with autocorrelation, via the classic batch-means method (the paper
  reports 95% intervals within 4% of the mean).
"""

from __future__ import annotations

import bisect
import math
from typing import Iterable, List, Optional, Sequence, Tuple

from ..errors import SimulationError


class RunningStats:
    """Streaming mean/variance/extremes via Welford's algorithm."""

    __slots__ = ("count", "_mean", "_m2", "minimum", "maximum")

    def __init__(self):
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def add(self, value: float) -> None:
        """Fold one observation into the accumulator."""
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    def extend(self, values: Iterable[float]) -> None:
        """Fold many observations into the accumulator."""
        for value in values:
            self.add(value)

    @property
    def mean(self) -> float:
        """Running mean (requires at least one observation)."""
        if self.count == 0:
            raise SimulationError("no observations recorded")
        return self._mean

    @property
    def variance(self) -> float:
        """Unbiased sample variance (requires >= 2 observations)."""
        if self.count < 2:
            raise SimulationError("variance needs at least two observations")
        return self._m2 / (self.count - 1)

    @property
    def stddev(self) -> float:
        """Square root of :attr:`variance`."""
        return math.sqrt(self.variance)

    def snapshot_state(self) -> dict:
        """The full accumulator as JSON-safe data (for checkpoints).

        The infinite pre-first-observation extremes are mapped to
        ``None``: checkpoint digests reject non-finite floats, and with
        ``count == 0`` the extremes carry no information anyway.
        """
        empty = self.count == 0
        return {
            "count": self.count,
            "mean": self._mean,
            "m2": self._m2,
            "minimum": None if empty else self.minimum,
            "maximum": None if empty else self.maximum,
        }

    def __repr__(self) -> str:
        if self.count == 0:
            return "<RunningStats empty>"
        return f"<RunningStats n={self.count} mean={self._mean:.6g}>"


class TimeWeightedStats:
    """Time-average of a piecewise-constant signal.

    Call :meth:`update` whenever the signal changes; the previous value is
    weighted by the elapsed simulated time.
    """

    __slots__ = ("_last_time", "_last_value", "_area", "_start", "maximum")

    def __init__(self, initial_time: float = 0.0, initial_value: float = 0.0):
        self._start = float(initial_time)
        self._last_time = float(initial_time)
        self._last_value = float(initial_value)
        self._area = 0.0
        self.maximum = float(initial_value)

    def update(self, now: float, value: float) -> None:
        """Record that the signal takes ``value`` from time ``now`` on."""
        if now < self._last_time:
            raise SimulationError(
                f"time went backwards: {now!r} < {self._last_time!r}"
            )
        self._area += self._last_value * (now - self._last_time)
        self._last_time = now
        self._last_value = float(value)
        if value > self.maximum:
            self.maximum = float(value)

    def mean(self, now: float) -> float:
        """Time-average of the signal over ``[start, now]``."""
        if now < self._last_time:
            raise SimulationError(
                f"time went backwards: {now!r} < {self._last_time!r}"
            )
        elapsed = now - self._start
        if elapsed <= 0:
            return self._last_value
        area = self._area + self._last_value * (now - self._last_time)
        return area / elapsed


class EmpiricalCdf:
    """Empirical cumulative distribution of a finite sample."""

    def __init__(self, samples: Sequence[float]):
        if not samples:
            raise SimulationError("cannot build a CDF from zero samples")
        self._sorted: List[float] = sorted(samples)
        self._n = len(self._sorted)

    @property
    def sample_count(self) -> int:
        """Number of samples backing the CDF."""
        return self._n

    def probability_below(self, threshold: float) -> float:
        """Fraction of samples strictly below ``threshold``.

        For the paper's metric this is ``Prob(MaxUtilization < x)``.
        """
        return bisect.bisect_left(self._sorted, threshold) / self._n

    def quantile(self, q: float) -> float:
        """The ``q``-quantile (0 <= q <= 1) of the sample."""
        if not 0.0 <= q <= 1.0:
            raise SimulationError(f"quantile must be in [0, 1], got {q!r}")
        if q == 1.0:
            return self._sorted[-1]
        return self._sorted[int(q * self._n)]

    def evaluate(self, grid: Sequence[float]) -> List[Tuple[float, float]]:
        """CDF values at each point of ``grid`` as ``(x, P(X < x))``."""
        return [(x, self.probability_below(x)) for x in grid]

    def __repr__(self) -> str:
        return (
            f"<EmpiricalCdf n={self._n} min={self._sorted[0]:.4g} "
            f"max={self._sorted[-1]:.4g}>"
        )


def _t_quantile(confidence: float, dof: int) -> float:
    """Two-sided Student-t critical value for ``confidence`` level.

    Exact when scipy is installed, the normal z value otherwise. scipy
    is imported here, not at module level: loading it takes most of a
    second, and no simulation computes an interval.
    """
    try:
        from scipy.stats import t as student_t
    except ImportError:
        return {0.90: 1.645, 0.95: 1.960, 0.99: 2.576}.get(
            round(confidence, 2), 1.960
        )
    return float(student_t.ppf(0.5 + confidence / 2.0, dof))


def batch_means_ci(
    samples: Sequence[float],
    batches: int = 20,
    confidence: float = 0.95,
) -> Tuple[float, float]:
    """Mean and confidence-interval half-width via batch means.

    The sample series is split into ``batches`` contiguous batches; the
    batch means are (approximately) independent, so a Student-t interval
    over them is valid even when consecutive samples are autocorrelated —
    exactly the situation for per-interval utilization samples from one
    long run.

    Returns
    -------
    (mean, half_width):
        Point estimate and 95% (by default) half-width. ``half_width`` is
        0 when the series is too short to batch.
    """
    n = len(samples)
    if n == 0:
        raise SimulationError("cannot form a confidence interval from no samples")
    mean = sum(samples) / n
    if n < 2 * batches:
        return mean, 0.0
    batch_size = n // batches
    usable = batch_size * batches
    means = [
        sum(samples[i : i + batch_size]) / batch_size
        for i in range(0, usable, batch_size)
    ]
    grand = sum(means) / batches
    variance = sum((m - grand) ** 2 for m in means) / (batches - 1)
    half = _t_quantile(confidence, batches - 1) * math.sqrt(variance / batches)
    return mean, half


def relative_ci_width(samples: Sequence[float], **kwargs) -> Optional[float]:
    """Half-width of the batch-means CI relative to the mean.

    Returns ``None`` when the mean is zero (the ratio is undefined).
    """
    mean, half = batch_means_ci(samples, **kwargs)
    if mean == 0:
        return None
    return half / abs(mean)
