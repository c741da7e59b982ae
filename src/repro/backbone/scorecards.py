"""Vendor scorecards (section 6.2's operational consumer).

"Backbone link vendors exhibit a wide degree of variance in failure
rates ... this problem makes the task of planning and maintaining
network connectivity and capacity a key challenge."  The scorecard
turns the measured per-vendor reliability into the artifact a capacity
planner actually uses: a graded comparison, and a ranked shortlist for
the next link purchase.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.stats.intervals import OutageInterval
from repro.stats.mtbf import mtbf_from_intervals
from repro.stats.mttr import mean_time_to_recovery


@dataclass(frozen=True)
class VendorScorecard:
    """One vendor's measured record."""

    vendor: str
    tickets: int
    mtbf_h: float
    mttr_h: float
    grade: str

    @property
    def availability(self) -> float:
        """Long-run fraction of time a typical link of the vendor is up."""
        return self.mtbf_h / (self.mtbf_h + self.mttr_h)


#: Grade boundaries on measured MTBF hours.  Anchored to the published
#: spread: the best vendors run five digits, the flaky outlier runs
#: single digits (section 6.2).
_GRADE_FLOORS = (("A", 3000.0), ("B", 1200.0), ("C", 400.0), ("D", 50.0))


def _grade(mtbf_h: float) -> str:
    for grade, floor in _GRADE_FLOORS:
        if mtbf_h >= floor:
            return grade
    return "F"


def scorecards_from_outages(
    outages_by_vendor: Dict[str, List[OutageInterval]],
    window_h: float,
    min_tickets: int = 1,
) -> Dict[str, VendorScorecard]:
    """Score every vendor with at least ``min_tickets`` outages.

    The pure finalizer of
    :class:`repro.runtime.analyses.VendorScorecardAnalysis`, so batch,
    streaming, and sharded execution grade vendors identically; a
    :class:`~repro.backbone.monitor.BackboneMonitor`'s
    ``outages_by_vendor()`` is the same view.  Per-vendor interval
    lists must be chronologically sorted.
    """
    if window_h <= 0:
        raise ValueError("window must be positive")
    cards = {}
    for vendor, intervals in outages_by_vendor.items():
        if len(intervals) < min_tickets:
            continue
        mtbf = mtbf_from_intervals(intervals, window_h)
        mttr = mean_time_to_recovery(intervals)
        cards[vendor] = VendorScorecard(
            vendor=vendor,
            tickets=len(intervals),
            mtbf_h=mtbf,
            mttr_h=mttr,
            grade=_grade(mtbf),
        )
    return cards


def shortlist(
    cards: Dict[str, VendorScorecard],
    k: int = 5,
    max_mttr_h: Optional[float] = None,
) -> List[VendorScorecard]:
    """The top-k vendors for the next link purchase.

    Ranked by measured availability (which folds MTBF and MTTR into
    one number), optionally excluding slow repairers outright — an
    edge on a remote island cares more about MTTR than MTBF.
    """
    if k < 1:
        raise ValueError("shortlist needs k >= 1")
    candidates = [
        c for c in cards.values()
        if max_mttr_h is None or c.mttr_h <= max_mttr_h
    ]
    ranked = sorted(
        candidates, key=lambda c: (-c.availability, c.vendor)
    )
    return ranked[:k]


def grade_distribution(
    cards: Dict[str, VendorScorecard]
) -> Dict[str, int]:
    """How many vendors land in each grade band."""
    out: Dict[str, int] = {}
    for card in cards.values():
        out[card.grade] = out.get(card.grade, 0) + 1
    return out
