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

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.survivability.analysis": (
        "DesignSurvivability", "SurvivabilityCurve", "SurvivabilityCurves",
        "SurvivabilityPoint", "SurvivabilityStudyReport",
        "SurvivabilitySummary", "SurvivabilityTallies",
        "build_survivability_context", "run_survivability_report",
        "survivability_report_analyses", "survivability_report_from",
    ),
    "repro.survivability.correlated": (
        "correlated_failure_order", "power_domains",
    ),
    "repro.survivability.trials": (
        "DESIGNS", "FRACTION_PERCENTS", "FailureTrial", "TrialSet",
        "default_correlated_knobs", "design_networks", "generate_trials",
        "reference_trials",
    ),
})
