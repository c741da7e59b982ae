"""Redundancy margin analysis (section 5.2).

"We currently provision eight Cores in each data center, which allows
us to tolerate one unavailable Core (e.g., if it must be removed from
operation for maintenance) without any impact on the data center
network."  This module computes that margin for every device type of a
built network: the largest number of same-type devices that can fail
simultaneously without stranding any rack from the Cores.

networkx is imported inside each function that walks a graph:
loading it costs 0.1–0.2 s and about 14 MB, which a command that
walks no graph should not pay.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List

from repro.topology.devices import DeviceType
from repro.topology.graph import build_graph

if TYPE_CHECKING:
    import networkx as nx


@dataclass(frozen=True)
class RedundancyMargin:
    """Tolerance of one device type in one network."""

    device_type: DeviceType
    population: int
    tolerated_failures: int

    @property
    def survives_maintenance(self) -> bool:
        """Can one device be drained with zero impact (the Core story)?"""
        return self.tolerated_failures >= 1

    @property
    def margin_fraction(self) -> float:
        if self.population == 0:
            return 0.0
        return self.tolerated_failures / self.population


def _strands_any_rack(graph: nx.Graph, failed: List[str]) -> bool:
    import networkx as nx

    survivors = graph.copy()
    survivors.remove_nodes_from(failed)
    cores = [
        n for n, d in survivors.nodes(data=True)
        if d["device_type"] is DeviceType.CORE
    ]
    if not cores:
        return True
    reachable = set()
    for core in cores:
        reachable |= nx.node_connected_component(survivors, core)
    return any(
        d["device_type"] is DeviceType.RSW and n not in reachable
        for n, d in survivors.nodes(data=True)
    )


def redundancy_margin(
    network,
    device_type: DeviceType,
    max_check: int = 4,
    exhaustive_limit: int = 200,
) -> RedundancyMargin:
    """Largest k such that any k same-type failures strand no rack.

    Failing RSWs strands the rack by definition, so their margin is 0.
    For aggregation types each k checks only the first
    ``exhaustive_limit`` k-subsets in sorted-name order.  The check is
    exhaustive while a k has no more subsets than that; past it the
    unchecked subsets may strand a rack, so the margin is an upper
    bound.
    """
    graph = build_graph(network)
    names = sorted(
        d.name for d in network.devices.values()
        if d.device_type is device_type
    )
    if not names:
        raise ValueError(f"network has no {device_type.value} devices")
    if device_type is DeviceType.RSW:
        return RedundancyMargin(device_type, len(names), 0)

    tolerated = 0
    for k in range(1, min(max_check, len(names)) + 1):
        combos = itertools.combinations(names, k)
        sample: List = []
        for i, combo in enumerate(combos):
            if i >= exhaustive_limit:
                break
            sample.append(combo)
        if any(_strands_any_rack(graph, list(c)) for c in sample):
            break
        tolerated = k
    return RedundancyMargin(device_type, len(names), tolerated)


def redundancy_report(
    network, max_check: int = 3
) -> Dict[DeviceType, RedundancyMargin]:
    """Margins for every device type present in the network."""
    present = {
        d.device_type for d in network.devices.values()
    }
    return {
        t: redundancy_margin(network, t, max_check=max_check)
        for t in sorted(present, key=lambda t: t.value)
    }
