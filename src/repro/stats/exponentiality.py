"""Exponentiality testing (section 6 headline).

"We model the reliability of a diverse set of edge networks and links
... and find that time to failure and time to repair closely follow
exponential functions."  This module tests that claim on the raw
event data: Kolmogorov-Smirnov against a rate-matched exponential, and
the coefficient-of-variation diagnostic (an exponential has CV = 1).

``scipy.stats`` is imported inside :func:`test_exponentiality`, its
only user: loading it costs over a second, and no CLI command or
served request runs the test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np


@dataclass(frozen=True)
class ExponentialityResult:
    """Outcome of testing a sample against the exponential family."""

    n: int
    mean: float
    cv: float
    ks_statistic: float
    p_value: float

    @property
    def consistent(self) -> bool:
        """Whether the sample is consistent with an exponential at the
        5% level (fails to reject)."""
        return self.p_value >= 0.05

    @property
    def cv_near_one(self) -> bool:
        """The coefficient of variation of an exponential is 1."""
        return 0.6 <= self.cv <= 1.6


def test_exponentiality(samples: Sequence[float]) -> ExponentialityResult:
    """KS-test a positive sample against Exp(mean = sample mean).

    Fitting the rate from the data makes the plain KS p-value
    optimistic (the Lilliefors effect), which is acceptable here: the
    paper's claim is "closely follow", not a sharp hypothesis test.
    """
    from scipy import stats as sps

    arr = np.asarray(list(samples), dtype=float)
    if arr.size < 8:
        raise ValueError("exponentiality testing needs >= 8 samples")
    if np.any(arr <= 0):
        raise ValueError("samples must be strictly positive durations")
    mean = float(arr.mean())
    cv = float(arr.std(ddof=1) / mean)
    ks = sps.kstest(arr, "expon", args=(0, mean))
    return ExponentialityResult(
        n=int(arr.size),
        mean=mean,
        cv=cv,
        ks_statistic=float(ks.statistic),
        p_value=float(ks.pvalue),
    )


def interarrival_times(event_times: Sequence[float]) -> List[float]:
    """Gaps between consecutive event start times (time to failure)."""
    ordered = sorted(event_times)
    if len(ordered) < 2:
        raise ValueError("need >= 2 events for inter-arrival times")
    return [b - a for a, b in zip(ordered, ordered[1:]) if b > a]
