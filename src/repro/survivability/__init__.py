"""repro.survivability — correlated failures and what survives them.

The paper's section 6.1 motivates the workload: failures cluster
(shared power domains, maintenance windows, storms over the
high-blast-radius aggregation layer), and what matters under clustered
failure is *survivability* — how much connectivity and capacity a
network design keeps as a growing fraction of its devices fails,
which is where the fabric's path diversity pays off over the classic
cluster design.

Three layers:

* :mod:`~repro.survivability.correlated` — seeded correlated
  failure-order generators over the topology graph, degrading
  bit-identically to the independent model at default knobs;
* :mod:`~repro.survivability.trials` — the generated trial corpus
  (integer survival counts per design x trial x failed-fraction);
* :mod:`~repro.survivability.analysis` — the analyses over it,
  declared prepare/fold/merge/finalize so the runtime's plan and its
  per-row reference fold answer them bit-identically.
"""

from repro.survivability.analysis import (
    DesignSurvivability,
    SurvivabilityCurve,
    SurvivabilityCurves,
    SurvivabilityPoint,
    SurvivabilityStudyReport,
    SurvivabilitySummary,
    SurvivabilityTallies,
    build_survivability_context,
    run_survivability_report,
    survivability_report_analyses,
    survivability_report_from,
)
from repro.survivability.correlated import (
    correlated_failure_order,
    power_domains,
)
from repro.survivability.trials import (
    DESIGNS,
    FRACTION_PERCENTS,
    FailureTrial,
    TrialSet,
    default_correlated_knobs,
    design_networks,
    generate_trials,
    reference_trials,
)

__all__ = [
    "DESIGNS",
    "DesignSurvivability",
    "FRACTION_PERCENTS",
    "FailureTrial",
    "SurvivabilityCurve",
    "SurvivabilityCurves",
    "SurvivabilityPoint",
    "SurvivabilityStudyReport",
    "SurvivabilitySummary",
    "SurvivabilityTallies",
    "TrialSet",
    "build_survivability_context",
    "correlated_failure_order",
    "default_correlated_knobs",
    "design_networks",
    "generate_trials",
    "power_domains",
    "reference_trials",
    "run_survivability_report",
    "survivability_report_analyses",
    "survivability_report_from",
]
