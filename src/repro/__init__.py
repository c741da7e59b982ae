"""repro — reproduction of "A Large Scale Study of Data Center Network
Reliability" (Meza, Xu, Veeraraghavan, Mutlu; IMC 2018).

The library rebuilds, from scratch, every system the study sits on —
the intra data center topologies (cluster and fabric), the fleet
growth model, the SEV database and authoring workflow, the automated
remediation engine, the backbone (edges, fiber links, vendors, repair
tickets, health monitor, traffic engineering) — plus a calibrated
synthetic corpus generator standing in for the proprietary Facebook
data, and the analysis pipeline that reproduces every table and
figure of the paper.

Quickstart::

    from repro import DeviceType, build_intra_context, run_intra_report

    report = run_intra_report(build_intra_context())
    print(report.root_causes.distribution())          # Table 2
    print(report.switches.mtbi(2017, DeviceType.RSW))  # Figure 12

One artifact is one analysis through the executor
(``Executor().run([RootCausesAnalysis()], context)["root_causes"]``,
analyses in :mod:`repro.runtime.analyses`); a question no analysis
asks is a :mod:`repro.core` finalizer over
:class:`~repro.incidents.query.SEVQuery` counts.

Every export resolves on first use (:mod:`repro._lazy`): ``import
repro`` loads no ``repro`` module but the helper, and
``repro.IntraSimulator`` imports the simulator when it is first read.

See README.md for the architecture overview and EXPERIMENTS.md for the
paper-versus-measured record.
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro": ("__version__",),
    "repro.core": (
        "capacity_report", "irt_vs_fleet_size", "population_breakdown",
        "remediation_table", "sevs_per_employee", "survivable_capacity",
        "switches_vs_employees",
    ),
    "repro.backbone": ("BackboneMonitor", "TicketDatabase", "TrafficEngineer"),
    "repro.survivability": ("generate_trials", "run_survivability_report"),
    "repro.config": ("DeploymentPipeline", "ReviewPolicy"),
    "repro.drtest": ("DatacenterDrainDrill", "FaultInjector", "StormDrill"),
    "repro.fleet": ("paper_employees", "paper_fleet"),
    "repro.incidents": ("RootCause", "SEVReport", "SEVStore", "Severity"),
    "repro.priorwork": ("compare_root_causes",),
    "repro.remediation": ("RemediationEngine",),
    "repro.services": (
        "ImpactModel", "masking_report", "place_uniform", "reference_catalog",
    ),
    "repro.simulation": (
        "BackboneSimulator", "IntraSimulator", "paper_backbone_scenario",
        "paper_scenario",
    ),
    "repro.runtime": (
        "Executor", "ResultCache", "RunContext", "build_backbone_context",
        "build_intra_context", "run_backbone_report", "run_intra_report",
    ),
    "repro.stream": ("StreamAggregates", "StreamEngine"),
    "repro.topology": (
        "DeviceType", "NetworkDesign", "build_backbone",
        "build_cluster_network", "build_fabric_network",
    ),
})
