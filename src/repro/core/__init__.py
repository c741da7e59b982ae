"""The paper's result types and the pure math behind them.

One module per analysis section:

=========================  ==========================================
Module                     Paper artifact
=========================  ==========================================
``root_causes``            Table 2, Figure 2 (section 5.1)
``incident_rates``         Figure 3 (section 5.2)
``severity``               Figures 4-6 (section 5.3)
``distribution``           Figures 7-8 (section 5.4)
``design_comparison``      Figures 9-11 (section 5.5)
``switch_reliability``     Figures 12-14 (section 5.6)
``remediation_stats``      Table 1 (section 4.1)
``backbone_reliability``   Figures 15-18, Table 4 (section 6)
``conditional_risk``       capacity planning consumer (section 6.1)
=========================  ==========================================

Each module holds its artifact's result dataclass and the pure
finalizer that builds it from already-tallied counts or outage views
(``rates_from_counts``, ``reliability_from_outages``, ...).  The
registered analyses of :mod:`repro.runtime` run those finalizers over
their fold states, so a whole study is one executor run
(:func:`repro.runtime.run_intra_report`); a question no analysis asks
— Table 2 of one year, say — is the same finalizer over a
:class:`~repro.incidents.query.SEVQuery` count.  The helpers for
Figures 6, 11 and 14, which no analysis computes, read the substrate
directly.  Nothing in here reads :mod:`repro.paperdata`.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.root_causes": (
        "RootCauseBreakdown", "device_fractions_from_counts",
    ),
    "repro.core.incident_rates": ("IncidentRateSeries", "rates_from_counts"),
    "repro.core.severity": (
        "SeverityByDevice", "SeverityRateSeries", "severity_rates_from_counts",
        "sevs_per_employee", "switches_vs_employees",
    ),
    "repro.core.distribution": ("IncidentDistribution", "growth_from_totals"),
    "repro.core.design_comparison": (
        "DesignComparison", "design_counts_from_type_counts",
        "population_breakdown",
    ),
    "repro.core.switch_reliability": (
        "SwitchReliability", "irt_fleet_correlation", "irt_vs_fleet_size",
        "switch_reliability_from_counts",
    ),
    "repro.core.remediation_stats": ("RemediationTable", "remediation_table"),
    "repro.core.backbone_reliability": (
        "BackboneReliability", "ContinentRow", "RepairDurationSummary",
        "continent_rows_from_failures", "reliability_from_outages",
    ),
    "repro.core.conditional_risk": (
        "CapacityReport", "SurvivableCapacityRow", "capacity_report",
        "survivable_capacity",
    ),
    "repro.core.fault_tolerance": (
        "RedundancyMargin", "redundancy_margin", "redundancy_report",
    ),
    "repro.core.reports": ("BackboneStudyReport", "IntraStudyReport"),
})
