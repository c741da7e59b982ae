"""Topology audits.

Checks a built network against the structural invariants the paper's
designs promise (section 3.1).  Production fleets drift — links get
recabled, devices drained and forgotten — and the misconfiguration
and accident root causes of Table 2 often begin as exactly these
violations, so an auditor that can state "this data center no longer
matches its design" is part of the operational substrate.

networkx is imported inside each function that walks a graph:
loading it costs 0.1–0.2 s and about 14 MB, which a command that
walks no graph should not pay.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List

from repro.topology.cluster import CSWS_PER_CLUSTER, ClusterNetwork
from repro.topology.devices import DeviceType
from repro.topology.fabric import FSWS_PER_RSW, FabricNetwork
from repro.topology.graph import build_graph
from repro.topology.naming import parse_device_name

if TYPE_CHECKING:
    import networkx as nx


@dataclass
class AuditReport:
    """Findings from one audit run; empty findings = compliant."""

    network: str
    findings: List[str] = field(default_factory=list)

    @property
    def compliant(self) -> bool:
        return not self.findings

    def add(self, finding: str) -> None:
        self.findings.append(finding)


def _common_checks(network, report: AuditReport) -> nx.Graph:
    import networkx as nx

    graph = build_graph(network)
    for name in network.devices:
        parsed = parse_device_name(name)
        if parsed.datacenter != network.datacenter:
            report.add(f"{name}: named for data center "
                       f"{parsed.datacenter!r}, lives in "
                       f"{network.datacenter!r}")
    if graph.number_of_nodes() and not nx.is_connected(graph):
        report.add("the network graph is not connected")
    for name, degree in graph.degree:
        if degree == 0:
            report.add(f"{name}: no links at all")
    return graph


def audit_cluster_network(network: ClusterNetwork) -> AuditReport:
    """Verify the classic cluster design's invariants."""
    report = AuditReport(network=network.datacenter)
    graph = _common_checks(network, report)

    for rsw in network.devices_of_type(DeviceType.RSW):
        csw_peers = [
            p for p in graph.neighbors(rsw.name)
            if network.devices[p].device_type is DeviceType.CSW
        ]
        if len(csw_peers) != CSWS_PER_CLUSTER:
            report.add(
                f"{rsw.name}: uplinks to {len(csw_peers)} CSWs, the "
                f"design requires {CSWS_PER_CLUSTER}"
            )
        clusters = {p.split(".")[2] for p in csw_peers}
        own = rsw.name.split(".")[2]
        if clusters and clusters != {own}:
            report.add(f"{rsw.name}: uplinks cross cluster boundaries")

    csas = list(network.devices_of_type(DeviceType.CSA))
    if not csas:
        report.add("no CSAs: inter-cluster traffic cannot stay in the DC")
    for csw in network.devices_of_type(DeviceType.CSW):
        csa_peers = [
            p for p in graph.neighbors(csw.name)
            if network.devices[p].device_type is DeviceType.CSA
        ]
        if len(csa_peers) < len(csas):
            report.add(f"{csw.name}: reaches only {len(csa_peers)} of "
                       f"{len(csas)} CSAs")
    return report


def audit_fabric_network(network: FabricNetwork) -> AuditReport:
    """Verify the fabric design's invariants (the 1:4 ratio above all)."""
    report = AuditReport(network=network.datacenter)
    graph = _common_checks(network, report)

    for rsw in network.devices_of_type(DeviceType.RSW):
        fsw_peers = [
            p for p in graph.neighbors(rsw.name)
            if network.devices[p].device_type is DeviceType.FSW
        ]
        if len(fsw_peers) != FSWS_PER_RSW:
            report.add(
                f"{rsw.name}: connects to {len(fsw_peers)} FSWs, the "
                f"design requires {FSWS_PER_RSW}"
            )
    for fsw in network.devices_of_type(DeviceType.FSW):
        ssw_peers = [
            p for p in graph.neighbors(fsw.name)
            if network.devices[p].device_type is DeviceType.SSW
        ]
        if not ssw_peers:
            report.add(f"{fsw.name}: no spine uplink")
    for ssw in network.devices_of_type(DeviceType.SSW):
        esw_peers = [
            p for p in graph.neighbors(ssw.name)
            if network.devices[p].device_type is DeviceType.ESW
        ]
        if not esw_peers:
            report.add(f"{ssw.name}: no edge-switch uplink")
    for bad_type in (DeviceType.CSA, DeviceType.CSW):
        if network.count(bad_type):
            report.add(f"fabric data center contains {bad_type.value} "
                       "devices")
    return report
