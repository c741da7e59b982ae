"""Synthetic workload generation.

The paper's raw data — seven years of SEV reports and eighteen months
of fiber repair tickets — is proprietary.  This package generates a
synthetic corpus with the published statistical shape (populations,
per-type incident counts, severity and root-cause mixes, edge/vendor
MTBF and MTTR spreads) so the analysis pipeline in :mod:`repro.core`
can exercise every table and figure end to end.

Only this package and the benchmarks read :mod:`repro.paperdata`; the
analyses recover the numbers from the generated corpus.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.simulation.clock": ("SimClock",),
    "repro.simulation.events": ("Event", "EventQueue"),
    "repro.simulation.failures": (
        "deterministic_times", "largest_remainder_allocation", "poisson_times",
    ),
    "repro.simulation.scenarios": (
        "BackboneScenario", "IntraScenario", "no_drain_policy_scenario",
        "paper_backbone_scenario", "paper_scenario", "shifted_fabric_scenario",
    ),
    "repro.simulation.generator": (
        "IntraSimulator", "RemediationMonthResult", "cell_reports",
        "cell_seed", "iter_scenario_reports", "scenario_cells",
    ),
    "repro.simulation.backbone_sim": ("BackboneCorpus", "BackboneSimulator"),
    "repro.simulation.fleetsim": ("FleetSimReport", "FleetSimulator"),
})
