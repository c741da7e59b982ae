"""Failure-to-impact model.

Maps a set of failed network devices to service-level symptoms — the
manifestations the SEV reports describe (section 4.2): "increased load
from lost capacity, message retries from corrupted packets, downtime
from partitioned connectivity, and increased latency from congested
links".

The model combines three published mechanisms:

* **replication masking** — a service with replicas left standing loses
  capacity, not availability (section 5.4);
* **blast radius** — a failed device only affects services whose racks
  it strands from the Cores (section 5.2's downstream argument,
  computed over the topology graph);
* **load shedding** — survivors absorb the failed replicas' traffic;
  pushing survivors past capacity reproduces the section 4.2 CSA
  example, where web and cache tiers exhausted CPU and failed 2.4% of
  requests.

networkx is imported inside each function that walks a graph:
loading it costs 0.1–0.2 s and about 14 MB, which a command that
walks no graph should not pay.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Set

from repro.services.catalog import Service, ServiceCatalog
from repro.services.placement import Placement
from repro.topology.devices import DeviceType

if TYPE_CHECKING:
    import networkx as nx


class ImpactKind(enum.Enum):
    """Service-level symptoms, as SEV reports categorize them."""

    NONE = "none"
    INCREASED_LATENCY = "increased_latency"
    LOST_CAPACITY = "lost_capacity"
    RETRIES = "retries"
    DOWNTIME = "downtime"


@dataclass(frozen=True)
class ServiceImpact:
    """The effect of a failure set on one service."""

    service: str
    kind: ImpactKind
    replicas_lost: int
    replicas_remaining: int
    failed_request_fraction: float

    @property
    def masked(self) -> bool:
        """True when the fault never surfaced at the service level."""
        return self.kind is ImpactKind.NONE


@dataclass
class ImpactAssessment:
    """Fleet-wide outcome of a failure set."""

    failed_devices: Set[str]
    impacts: Dict[str, ServiceImpact] = field(default_factory=dict)

    @property
    def affected_services(self) -> List[str]:
        return sorted(
            name for name, i in self.impacts.items() if not i.masked
        )

    @property
    def fully_masked(self) -> bool:
        """The failure produced no service-level symptoms at all —
        the common case the paper's remediation data implies."""
        return not self.affected_services

    @property
    def worst_kind(self) -> ImpactKind:
        order = [ImpactKind.DOWNTIME, ImpactKind.LOST_CAPACITY,
                 ImpactKind.RETRIES, ImpactKind.INCREASED_LATENCY,
                 ImpactKind.NONE]
        for kind in order:
            if any(i.kind is kind for i in self.impacts.values()):
                return kind
        return ImpactKind.NONE


class ImpactModel:
    """Assesses device-failure sets against a placed service catalog."""

    def __init__(
        self,
        catalog: ServiceCatalog,
        placement: Placement,
        graph: nx.Graph,
        overload_headroom: float = 1.5,
    ) -> None:
        if overload_headroom < 1.0:
            raise ValueError("headroom below 1.0 means always overloaded")
        self._catalog = catalog
        self._placement = placement
        self._graph = graph
        self._headroom = overload_headroom

    def assess(self, failed_devices: Iterable[str]) -> ImpactAssessment:
        """Evaluate a set of simultaneous device failures."""
        failed = set(failed_devices)
        unknown = failed - set(self._graph.nodes)
        if unknown:
            raise KeyError(f"unknown devices in failure set: {sorted(unknown)}")

        # Racks cut off from the Cores under the *joint* failure:
        # directly failed RSWs plus every rack that can no longer
        # reach a surviving Core.  Joint reachability matters —
        # correlated failures (all four FSWs of a pod) strand racks
        # that no single failure would.
        stranded = self._stranded_racks(failed)

        assessment = ImpactAssessment(failed_devices=failed)
        for service in self._catalog:
            assessment.impacts[service.name] = self._assess_service(
                service, stranded, failed
            )
        return assessment

    def _stranded_racks(self, failed: Set[str]) -> Set[str]:
        import networkx as nx

        stranded = {
            d for d in failed
            if self._graph.nodes[d]["device_type"] is DeviceType.RSW
        }
        survivors = self._graph.copy()
        survivors.remove_nodes_from(failed)
        cores = {
            n for n, data in survivors.nodes(data=True)
            if data["device_type"] is DeviceType.CORE
        }
        reachable: Set[str] = set()
        for core in cores:
            reachable |= nx.node_connected_component(survivors, core)
        for node, data in survivors.nodes(data=True):
            if data["device_type"] is DeviceType.RSW and node not in reachable:
                stranded.add(node)
        return stranded

    def _assess_service(
        self, service: Service, stranded: Set[str], failed: Set[str]
    ) -> ServiceImpact:
        lost = self._placement.replicas_lost(service.name, stranded)
        remaining = service.replicas - lost

        if remaining == 0:
            return ServiceImpact(service.name, ImpactKind.DOWNTIME,
                                 lost, 0, 1.0)
        if lost == 0:
            # No replica lost.  Cross-DC services still feel a Core
            # loss as congestion on the remaining exits.
            core_failed = any(
                self._graph.nodes[d]["device_type"] is DeviceType.CORE
                for d in failed
            )
            if core_failed and service.cross_datacenter:
                return ServiceImpact(service.name,
                                     ImpactKind.INCREASED_LATENCY,
                                     0, service.replicas, 0.0)
            return ServiceImpact(service.name, ImpactKind.NONE,
                                 0, service.replicas, 0.0)

        # Survivors absorb the shed load; demand is the full-replica
        # load, capacity scales with survivors times headroom.
        demand = float(service.replicas)
        capacity = remaining * self._headroom
        if demand > capacity:
            failed_fraction = (demand - capacity) / demand
            return ServiceImpact(service.name, ImpactKind.LOST_CAPACITY,
                                 lost, remaining,
                                 round(failed_fraction, 4))
        # Absorbed, but clients retried against the dead replicas.
        return ServiceImpact(service.name, ImpactKind.RETRIES,
                             lost, remaining, 0.0)
