"""Backbone reliability analyses (section 6, Figures 15-18, Table 4)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.stats.expfit import ExponentialModel
from repro.stats.intervals import OutageInterval
from repro.stats.mtbf import mtbf_from_intervals
from repro.stats.mttr import mean_time_to_recovery
from repro.stats.percentile import PercentileCurve, curve_of_means
from repro.topology.backbone import BackboneTopology, Continent

#: Outage intervals keyed by entity (edge name, vendor name, ...).
IntervalsByEntity = Dict[str, List[OutageInterval]]


@dataclass(frozen=True)
class BackboneReliability:
    """The four percentile curves of section 6 with their fitted models."""

    edge_mtbf: PercentileCurve
    edge_mttr: PercentileCurve
    vendor_mtbf: PercentileCurve
    vendor_mttr: PercentileCurve

    def edge_mtbf_model(self) -> ExponentialModel:
        """Figure 15's dotted line (462.88 * e^{2.3408 p} in the paper)."""
        return self.edge_mtbf.fit_exponential(strict=False)

    def edge_mttr_model(self) -> ExponentialModel:
        """Figure 16's dotted line (1.513 * e^{4.256 p})."""
        return self.edge_mttr.fit_exponential(strict=False)

    def vendor_mtbf_model(self) -> ExponentialModel:
        """Figure 17's dotted line (no constants published)."""
        return self.vendor_mtbf.fit_exponential(strict=False)

    def vendor_mttr_model(self) -> ExponentialModel:
        """Figure 18's dotted line (1.1345 * e^{4.7709 p})."""
        return self.vendor_mttr.fit_exponential(strict=False)


def reliability_from_outages(
    failures_by_edge: IntervalsByEntity,
    outages_by_vendor: IntervalsByEntity,
    window_h: float,
) -> BackboneReliability:
    """The section 6 curves from pre-derived outage interval views.

    The pure finalizer of
    :class:`repro.runtime.analyses.BackboneReliabilityAnalysis`.  A
    :class:`~repro.backbone.monitor.BackboneMonitor`'s
    ``failures_by_edge()`` and ``outages_by_vendor()`` and the
    runtime's fold state both reduce to these two views, so the curves
    agree bit for bit whichever produced them.  Per-entity interval
    lists must be chronologically sorted (both producers guarantee it)
    so the float summations agree.
    """
    if window_h <= 0:
        raise ValueError("the observation window must be positive")

    edge_mtbf: Dict[str, float] = {}
    edge_mttr: Dict[str, float] = {}
    for edge, intervals in failures_by_edge.items():
        edge_mtbf[edge] = mtbf_from_intervals(intervals, window_h)
        edge_mttr[edge] = mean_time_to_recovery(intervals)

    vendor_mtbf: Dict[str, float] = {}
    vendor_mttr: Dict[str, float] = {}
    for vendor, intervals in outages_by_vendor.items():
        vendor_mtbf[vendor] = mtbf_from_intervals(intervals, window_h)
        vendor_mttr[vendor] = mean_time_to_recovery(intervals)

    if not edge_mtbf:
        raise ValueError("no edge failures observed in the corpus")
    if not vendor_mtbf:
        raise ValueError("no link outages observed in the corpus")

    return BackboneReliability(
        edge_mtbf=curve_of_means(edge_mtbf),
        edge_mttr=curve_of_means(edge_mttr),
        vendor_mtbf=curve_of_means(vendor_mtbf),
        vendor_mttr=curve_of_means(vendor_mttr),
    )


@dataclass(frozen=True)
class ContinentRow:
    """One Table 4 row."""

    continent: Continent
    edge_count: int
    share: float
    mtbf_h: Optional[float]
    mttr_h: Optional[float]


def continent_rows_from_failures(
    failures: IntervalsByEntity,
    topology: BackboneTopology,
    window_h: float,
) -> List[ContinentRow]:
    """Table 4 from a pre-derived edge-failure view (pure finalizer)."""
    total_edges = len(topology.edges)
    rows = []
    for continent in Continent:
        edges = topology.edges_on(continent)
        if not edges:
            continue
        mtbfs, mttrs = [], []
        for edge in edges:
            intervals = failures.get(edge.name)
            if not intervals:
                continue
            mtbfs.append(mtbf_from_intervals(intervals, window_h))
            mttrs.append(mean_time_to_recovery(intervals))
        rows.append(
            ContinentRow(
                continent=continent,
                edge_count=len(edges),
                share=len(edges) / total_edges,
                mtbf_h=sum(mtbfs) / len(mtbfs) if mtbfs else None,
                mttr_h=sum(mttrs) / len(mttrs) if mttrs else None,
            )
        )
    rows.sort(key=lambda r: -r.share)
    return rows


@dataclass(frozen=True)
class RepairDurationSummary:
    """Repair-duration percentiles over a ticket corpus.

    The streamed counterpart of section 6's repair-time discussion:
    how long vendor work items take, overall and split by ticket type
    (unplanned repair vs planned maintenance).  ``by_type`` maps the
    :class:`~repro.backbone.tickets.TicketType` value to its ticket
    count.
    """

    tickets: int
    p50_h: float
    p90_h: float
    p99_h: float
    by_type: Dict[str, int]
