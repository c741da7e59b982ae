"""Full-study report composition.

Bundles every analysis into one structured object and renders it as a
text document — the terminal version of the paper's evaluation
sections.  :func:`repro.runtime.run_intra_report` and
:func:`repro.runtime.run_backbone_report` assemble them from one
executor run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.backbone_reliability import BackboneReliability, ContinentRow
from repro.core.design_comparison import DesignComparison
from repro.core.distribution import IncidentDistribution
from repro.core.incident_rates import IncidentRateSeries
from repro.core.root_causes import RootCauseBreakdown
from repro.core.severity import SeverityByDevice, SeverityRateSeries
from repro.core.switch_reliability import SwitchReliability
from repro.incidents.sev import RootCause, Severity
from repro.topology.devices import DeviceType
from repro.viz.tables import format_table


@dataclass
class IntraStudyReport:
    """Every intra data center artifact from one corpus."""

    root_causes: RootCauseBreakdown
    rates: IncidentRateSeries
    severity: SeverityByDevice
    severity_over_time: SeverityRateSeries
    distribution: IncidentDistribution
    designs: DesignComparison
    switches: SwitchReliability
    growth: float
    last_year: int

    def render(self) -> str:
        sections: List[str] = []
        sections.append(format_table(
            ["Root cause", "Share"],
            [[c.value, f"{self.root_causes.fraction(c):.1%}"]
             for c in RootCause],
            title="Table 2: root causes",
        ))
        sections.append(format_table(
            ["Severity", "Share"],
            [[s.label, f"{self.severity.level_share(s):.1%}"]
             for s in sorted(Severity)],
            title=f"Figure 4: severity mix, {self.last_year}",
        ))
        sections.append(format_table(
            ["Device", "Incident share", "Rate/device", "MTBI (h)"],
            [
                [t.value,
                 f"{self.distribution.fraction_of_year(self.last_year, t):.1%}",
                 f"{self.rates.rate(self.last_year, t):.2g}",
                 (f"{self.switches.mtbi_h[self.last_year][t]:.3g}"
                  if t in self.switches.mtbi_h.get(self.last_year, {})
                  else "-")]
                for t in DeviceType
            ],
            title=f"Figures 3/7/12: device types in {self.last_year}",
        ))
        sections.append(
            f"Growth (Figure 8): {self.growth:.1f}x; cluster inflection "
            f"(Figure 9): {self.designs.cluster_inflection_year()}; "
            f"fabric/cluster {self.last_year}: "
            f"{self.designs.fabric_to_cluster_ratio(self.last_year):.0%}"
        )
        return "\n\n".join(sections)


@dataclass
class BackboneStudyReport:
    """Every inter data center artifact from one corpus.

    ``vendors`` and ``durations`` are the section 6.2 ride-alongs the
    runtime's backbone run adds (graded vendor scorecards and
    repair-duration percentiles); older call sites that build a report
    without them render the original two sections only.
    """

    reliability: BackboneReliability
    continents: List[ContinentRow]
    window_h: float
    vendors: Optional[dict] = None
    durations: Optional[object] = None

    def render(self) -> str:
        rel = self.reliability
        curves = format_table(
            ["Curve", "p50", "p90", "Fitted model"],
            [
                ["edge MTBF (h)", f"{rel.edge_mtbf.p50:.0f}",
                 f"{rel.edge_mtbf.p90:.0f}", str(rel.edge_mtbf_model())],
                ["edge MTTR (h)", f"{rel.edge_mttr.p50:.1f}",
                 f"{rel.edge_mttr.p90:.1f}", str(rel.edge_mttr_model())],
                ["vendor MTBF (h)", f"{rel.vendor_mtbf.p50:.0f}",
                 f"{rel.vendor_mtbf.p90:.0f}",
                 str(rel.vendor_mtbf_model())],
                ["vendor MTTR (h)", f"{rel.vendor_mttr.p50:.1f}",
                 f"{rel.vendor_mttr.p90:.1f}",
                 str(rel.vendor_mttr_model())],
            ],
            title="Figures 15-18: backbone reliability",
        )
        continents = format_table(
            ["Continent", "Share", "MTBF (h)", "MTTR (h)"],
            [[r.continent.value, f"{r.share:.0%}",
              f"{r.mtbf_h:.0f}" if r.mtbf_h else "-",
              f"{r.mttr_h:.1f}" if r.mttr_h else "-"]
             for r in self.continents],
            title="Table 4: edges by continent",
        )
        sections = [curves, continents]
        if self.vendors:
            from repro.viz.ticket_view import scorecard_table

            sections.append(scorecard_table(self.vendors))
        if self.durations is not None:
            from repro.viz.ticket_view import duration_table

            sections.append(duration_table(self.durations))
        return "\n\n".join(sections)
