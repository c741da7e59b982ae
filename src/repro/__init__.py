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

See README.md for the architecture overview and EXPERIMENTS.md for the
paper-versus-measured record.
"""

from repro.core import (
    capacity_report,
    irt_vs_fleet_size,
    population_breakdown,
    remediation_table,
    sevs_per_employee,
    survivable_capacity,
    switches_vs_employees,
)
from repro.backbone import BackboneMonitor, TicketDatabase, TrafficEngineer
from repro.survivability import generate_trials, run_survivability_report
from repro.config import DeploymentPipeline, ReviewPolicy
from repro.drtest import DatacenterDrainDrill, FaultInjector, StormDrill
from repro.fleet import paper_employees, paper_fleet
from repro.incidents import RootCause, SEVReport, SEVStore, Severity
from repro.priorwork import compare_root_causes
from repro.remediation import RemediationEngine
from repro.services import (
    ImpactModel,
    masking_report,
    place_uniform,
    reference_catalog,
)
from repro.simulation import (
    BackboneSimulator,
    IntraSimulator,
    paper_backbone_scenario,
    paper_scenario,
)
from repro.runtime import (
    Executor,
    ResultCache,
    RunContext,
    build_backbone_context,
    build_intra_context,
    run_backbone_report,
    run_intra_report,
)
from repro.stream import StreamAggregates, StreamEngine
from repro.topology import (
    DeviceType,
    NetworkDesign,
    build_backbone,
    build_cluster_network,
    build_fabric_network,
)

__version__ = "1.0.0"

__all__ = [
    "BackboneMonitor",
    "BackboneSimulator",
    "DatacenterDrainDrill",
    "DeploymentPipeline",
    "DeviceType",
    "Executor",
    "FaultInjector",
    "ImpactModel",
    "IntraSimulator",
    "NetworkDesign",
    "RemediationEngine",
    "ResultCache",
    "ReviewPolicy",
    "RootCause",
    "RunContext",
    "SEVReport",
    "SEVStore",
    "Severity",
    "StormDrill",
    "StreamAggregates",
    "StreamEngine",
    "TicketDatabase",
    "TrafficEngineer",
    "__version__",
    "build_backbone",
    "build_backbone_context",
    "build_cluster_network",
    "build_fabric_network",
    "build_intra_context",
    "capacity_report",
    "compare_root_causes",
    "generate_trials",
    "irt_vs_fleet_size",
    "masking_report",
    "paper_backbone_scenario",
    "paper_employees",
    "paper_fleet",
    "paper_scenario",
    "place_uniform",
    "population_breakdown",
    "reference_catalog",
    "remediation_table",
    "run_backbone_report",
    "run_intra_report",
    "run_survivability_report",
    "sevs_per_employee",
    "survivable_capacity",
    "switches_vs_employees",
]
