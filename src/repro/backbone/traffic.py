"""Backbone traffic engineering (sections 3.2 and 6.1).

Two consumers of the reliability data are modeled:

* **Rerouting** — "the more common results of fiber cuts are the loss
  of capacity from edges to regions or between two regions.  In this
  case, we have to reroute the traffic using other available links,
  which could increase end-to-end latency" (section 3.2).
  :class:`TrafficEngineer` computes the reroute and its latency cost.
* **Conditional risk** — "at Facebook, we use these models in capacity
  planning to calculate conditional risk, the likelihood of edge or
  link being unavailable given a set of failures.  We plan edge and
  link capacity to tolerate the 99.99th percentile of conditional
  risk" (section 6.1).  :func:`conditional_risk` and
  :meth:`TrafficEngineer.plan_capacity` implement that planner over
  the fitted MTBF/MTTR models.

networkx is imported inside each function that walks a graph:
loading it costs 0.1–0.2 s and about 14 MB, which a command that
walks no graph should not pay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, List, Sequence, Tuple

from repro.stats.expfit import ExponentialModel
from repro.topology.backbone import BackboneTopology

if TYPE_CHECKING:
    import networkx as nx


@dataclass(frozen=True)
class RerouteResult:
    """Outcome of rerouting a demand around failed links."""

    source: str
    destination: str
    connected: bool
    baseline_hops: int
    rerouted_hops: int
    capacity_gbps: float

    @property
    def latency_stretch(self) -> float:
        """Hop-count stretch of the reroute (>= 1.0 when connected)."""
        if not self.connected:
            return float("inf")
        if self.baseline_hops == 0:
            return 1.0
        return self.rerouted_hops / self.baseline_hops


@dataclass(frozen=True)
class CapacityPlan:
    """Provisioning recommendation for one edge."""

    edge: str
    unavailability: float
    survives_target: bool
    recommended_links: int


def steady_state_unavailability(mtbf_h: float, mttr_h: float) -> float:
    """Long-run fraction of time an entity is down.

    The standard alternating-renewal result: U = MTTR / (MTBF + MTTR).
    """
    if mtbf_h <= 0 or mttr_h < 0:
        raise ValueError("MTBF must be positive and MTTR non-negative")
    return mttr_h / (mtbf_h + mttr_h)


def conditional_risk(
    link_unavailabilities: Sequence[float],
    already_failed: int = 0,
) -> float:
    """Probability that *all remaining* links are down, given failures.

    With ``already_failed`` of the listed links known to be down, the
    conditional probability that the rest are simultaneously down (the
    edge-severing event) is the product of the remaining
    unavailabilities.  Links are treated as independent, which is the
    planner's conservative-by-construction assumption for links that
    do not share conduits.
    """
    if already_failed < 0 or already_failed > len(link_unavailabilities):
        raise ValueError("already_failed outside [0, number of links]")
    for u in link_unavailabilities:
        if not 0.0 <= u <= 1.0:
            raise ValueError(f"unavailability {u} outside [0, 1]")
    remaining = sorted(link_unavailabilities, reverse=True)[already_failed:]
    risk = 1.0
    for u in remaining:
        risk *= u
    return risk


class TrafficEngineer:
    """Centralized traffic engineering over the backbone topology."""

    def __init__(self, topology: BackboneTopology) -> None:
        self._topology = topology

    # -- rerouting ---------------------------------------------------------

    def reroute(
        self,
        source: str,
        destination: str,
        failed_links: Iterable[str],
        demand_gbps: float = 0.0,
    ) -> RerouteResult:
        """Shortest-path reroute around failed links.

        ``capacity_gbps`` in the result is the max-flow capacity still
        available between the endpoints; a demand above it is a loss
        of capacity even though connectivity survives.
        """
        import networkx as nx

        failed = set(failed_links)
        baseline = self._topology.graph()
        degraded = self._topology.graph(failed)
        if source not in baseline or destination not in baseline:
            raise KeyError(f"unknown edge: {source!r} or {destination!r}")

        baseline_hops = nx.shortest_path_length(baseline, source, destination)
        if not nx.has_path(degraded, source, destination):
            return RerouteResult(source, destination, False,
                                 baseline_hops, -1, 0.0)
        rerouted_hops = nx.shortest_path_length(degraded, source, destination)
        capacity = self._max_flow(degraded, source, destination)
        return RerouteResult(
            source, destination, True, baseline_hops, rerouted_hops, capacity
        )

    @staticmethod
    def _max_flow(graph: nx.MultiGraph, source: str, destination: str) -> float:
        import networkx as nx

        # Collapse parallel links into one edge of summed capacity for
        # the flow computation.
        simple = nx.Graph()
        simple.add_nodes_from(graph.nodes)
        for a, b, data in graph.edges(data=True):
            cap = data.get("capacity", 0.0)
            if simple.has_edge(a, b):
                simple[a][b]["capacity"] += cap
            else:
                simple.add_edge(a, b, capacity=cap)
        value, _ = nx.maximum_flow(simple, source, destination,
                                   capacity="capacity")
        return float(value)

    def capacity_loss(
        self, source: str, destination: str, failed_links: Iterable[str]
    ) -> float:
        """Fraction of capacity lost between two edges under failures."""
        healthy = self._max_flow(self._topology.graph(), source, destination)
        if healthy == 0:
            raise ValueError(f"no baseline capacity {source!r}->{destination!r}")
        degraded = self._max_flow(
            self._topology.graph(failed_links), source, destination
        )
        return 1.0 - degraded / healthy

    # -- conditional-risk capacity planning ----------------------------------

    def plan_capacity(
        self,
        edge: str,
        mtbf_model: ExponentialModel,
        mttr_model: ExponentialModel,
        percentile: float = 0.9999,
        link_percentile: float = 0.5,
        max_links: int = 16,
    ) -> CapacityPlan:
        """Provision links so the edge tolerates the target risk.

        Each link's unavailability is derived from the fitted models
        at ``link_percentile`` (the planner's median link); links are
        added until the probability of the edge-severing event drops
        below ``1 - percentile`` (the paper plans to the 99.99th
        percentile of conditional risk).
        """
        if not 0.0 < percentile < 1.0:
            raise ValueError("percentile must be in (0, 1)")
        mtbf = mtbf_model.predict(link_percentile)
        mttr = mttr_model.predict(link_percentile)
        u = steady_state_unavailability(mtbf, mttr)
        target = 1.0 - percentile

        current = len(self._topology.links_of_edge(edge))
        links = max(current, 1)
        while conditional_risk([u] * links) > target and links < max_links:
            links += 1
        risk = conditional_risk([u] * links)
        return CapacityPlan(
            edge=edge,
            unavailability=risk,
            survives_target=risk <= target,
            recommended_links=links,
        )

    # -- partition audit -----------------------------------------------------

    def partition_report(
        self, failed_links: Iterable[str]
    ) -> Tuple[bool, List[set]]:
        """Whether the backbone is partitioned and its components.

        Section 3.2: catastrophic partitions that disconnect data
        centers are what careful planning avoids.
        """
        components = self._topology.partitions(failed_links)
        return len(components) > 1, components
