"""Graph analyses over intra data center networks.

The paper's blast-radius argument (section 5.2/5.4: devices with higher
bisection bandwidth affect a larger number of connected downstream
devices) and the fabric's path-diversity claim (section 5.2) are both
graph properties.  This module turns a built network into a
:class:`networkx.Graph` and computes them.

networkx is imported inside each function that walks a graph:
loading it costs 0.1–0.2 s and about 14 MB, which a command that
walks no graph should not pay.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Set

from repro.topology.devices import DeviceType

if TYPE_CHECKING:
    import networkx as nx


def build_graph(network) -> nx.Graph:
    """Build an undirected graph from a Cluster/FabricNetwork.

    Nodes carry a ``device_type`` attribute; edges are the physical
    links recorded by the builder.
    """
    import networkx as nx

    graph = nx.Graph()
    for name, device in network.devices.items():
        graph.add_node(name, device_type=device.device_type)
    graph.add_edges_from(network.links)
    return graph


def downstream_devices(graph: nx.Graph, device: str) -> Set[str]:
    """Devices that lose some connectivity when ``device`` fails.

    A node is *downstream* of ``device`` if removing ``device``
    disconnects it from every Core (the inter data center exit).  This
    is the paper's notion of blast radius: failing a high-bisection
    device strands many downstream devices.
    """
    import networkx as nx

    if device not in graph:
        raise KeyError(f"unknown device {device!r}")
    cores = {
        n
        for n, data in graph.nodes(data=True)
        if data.get("device_type") is DeviceType.CORE and n != device
    }
    if not cores:
        return set()
    reduced = graph.copy()
    reduced.remove_node(device)
    reachable: Set[str] = set()
    for core in cores:
        reachable |= nx.node_connected_component(reduced, core)
    return set(reduced.nodes) - reachable


def path_diversity(graph: nx.Graph, a: str, b: str) -> int:
    """Number of node-disjoint paths between two devices.

    Higher path diversity is what lets the fabric tolerate failures
    with long repair times (sections 5.2, 6.1).
    """
    import networkx as nx

    if a not in graph or b not in graph:
        raise KeyError(f"unknown endpoint: {a!r} or {b!r}")
    if a == b:
        raise ValueError("path diversity needs two distinct endpoints")
    if not nx.has_path(graph, a, b):
        return 0
    if b in graph[a]:
        # node_connectivity requires non-adjacent nodes; count the
        # direct link plus disjoint paths through the residual graph.
        residual = graph.copy()
        residual.remove_edge(a, b)
        if not nx.has_path(residual, a, b):
            return 1
        return 1 + nx.node_connectivity(residual, a, b)
    return nx.node_connectivity(graph, a, b)


def bisection_links(graph: nx.Graph, device: str) -> int:
    """Degree of a device: the links whose capacity transits it.

    Used as the concrete proxy for the paper's bisection-bandwidth
    ordering of device types.
    """
    if device not in graph:
        raise KeyError(f"unknown device {device!r}")
    return graph.degree[device]


def is_connected_under_failures(
    graph: nx.Graph, failed: Iterable[str], a: str, b: str
) -> bool:
    """Whether ``a`` can still reach ``b`` after removing failed devices."""
    import networkx as nx

    failed_set = set(failed)
    if a in failed_set or b in failed_set:
        return False
    reduced = graph.copy()
    reduced.remove_nodes_from(failed_set & set(reduced.nodes))
    return a in reduced and b in reduced and nx.has_path(reduced, a, b)


def rank_by_blast_radius(graph: nx.Graph) -> List[str]:
    """Devices ordered by descending blast radius (ties by name)."""
    sizes = {n: len(downstream_devices(graph, n)) for n in graph.nodes}
    return sorted(sizes, key=lambda n: (-sizes[n], n))
