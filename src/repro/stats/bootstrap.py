"""Bootstrap confidence intervals.

The study's percentile statistics (edge MTBF p50, vendor MTTR p90, …)
are computed from a few dozen to a few hundred entities; bootstrap
resampling quantifies how much those summaries wobble, which is what
the reproduction's tolerance bands in EXPERIMENTS.md rest on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class ConfidenceInterval:
    """A two-sided percentile-bootstrap interval."""

    point: float
    low: float
    high: float
    confidence: float
    resamples: int

    def __post_init__(self) -> None:
        if not self.low <= self.point <= self.high:
            raise ValueError(
                f"point {self.point} outside interval "
                f"[{self.low}, {self.high}]"
            )

    @property
    def half_width(self) -> float:
        return (self.high - self.low) / 2

    def contains(self, value: float) -> bool:
        return self.low <= value <= self.high

    def __str__(self) -> str:
        return (f"{self.point:.4g} "
                f"[{self.low:.4g}, {self.high:.4g}] "
                f"@{self.confidence:.0%}")


def bootstrap_ci(
    values: Sequence[float],
    statistic: Callable[[np.ndarray], float],
    confidence: float = 0.95,
    resamples: int = 2000,
    seed: int = 0,
) -> ConfidenceInterval:
    """Percentile bootstrap for an arbitrary statistic.

    ``statistic`` receives a resampled numpy array and returns a
    scalar.  The point estimate is the statistic of the original
    sample; when it falls outside the resampled percentile band (a
    heavily skewed statistic on a tiny sample), the band is widened to
    include it rather than reporting an incoherent interval.
    """
    import numpy as np

    arr = np.asarray(list(values), dtype=float)
    if arr.size < 2:
        raise ValueError("bootstrap needs at least two observations")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    if resamples < 10:
        raise ValueError("too few resamples to form an interval")

    rng = np.random.default_rng(seed)
    point = float(statistic(arr))
    stats = np.empty(resamples)
    for i in range(resamples):
        stats[i] = statistic(rng.choice(arr, size=arr.size, replace=True))
    alpha = (1.0 - confidence) / 2
    low = float(np.quantile(stats, alpha))
    high = float(np.quantile(stats, 1.0 - alpha))
    low = min(low, point)
    high = max(high, point)
    return ConfidenceInterval(point=point, low=low, high=high,
                              confidence=confidence, resamples=resamples)


def median_ci(values: Sequence[float], confidence: float = 0.95,
              resamples: int = 2000, seed: int = 0) -> ConfidenceInterval:
    """Bootstrap CI for the median (the curves' p50 anchors)."""
    import numpy as np

    return bootstrap_ci(values, lambda a: float(np.median(a)),
                        confidence, resamples, seed)


def mean_ci(values: Sequence[float], confidence: float = 0.95,
            resamples: int = 2000, seed: int = 0) -> ConfidenceInterval:
    """Bootstrap CI for the mean (Table 4's continent averages)."""
    return bootstrap_ci(values, lambda a: float(a.mean()),
                        confidence, resamples, seed)
