"""WAN backbone topology (sections 3.2 and 6).

The physical backbone is abstracted as *edge nodes* connected through
*fiber links*.  Each end-to-end fiber link is embodied by optical
circuits made of multiple optical segments; an edge connects to the
backbone and Internet using at least three links and fails only when
all of its links fail (section 6).

Fiber links are operated by third-party *fiber vendors* whose repair
tickets form the inter data center dataset; edges live on continents,
whose marginal reliability Table 4 reports.

networkx is imported inside each function that walks a graph:
loading it costs 0.1–0.2 s and about 14 MB, which a command that
walks no graph should not pay.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Set, Tuple

if TYPE_CHECKING:
    import networkx as nx

#: An edge connects to the backbone using at least this many links.
MIN_LINKS_PER_EDGE = 3


class Continent(enum.Enum):
    """Continents used by the Table 4 breakdown."""

    NORTH_AMERICA = "north_america"
    EUROPE = "europe"
    ASIA = "asia"
    SOUTH_AMERICA = "south_america"
    AFRICA = "africa"
    AUSTRALIA = "australia"


@dataclass
class EdgeNode:
    """A geographical location where backbone hardware is deployed."""

    name: str
    continent: Continent
    is_datacenter_region: bool = False


@dataclass
class OpticalSegment:
    """One fiber span within a circuit, carrying multiple channels."""

    segment_id: str
    length_km: float = 100.0
    channels: int = 40


@dataclass
class FiberLink:
    """An end-to-end bundle of optical fiber between two edges."""

    link_id: str
    a: str
    b: str
    vendor: str
    capacity_gbps: float = 100.0
    segments: List[OpticalSegment] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise ValueError(f"link {self.link_id!r} must join distinct edges")

    @property
    def endpoints(self) -> Tuple[str, str]:
        return (self.a, self.b)

    def touches(self, edge: str) -> bool:
        return edge in (self.a, self.b)


@dataclass
class BackboneTopology:
    """Edge nodes joined by fiber links.

    Add links through :meth:`add_link` (or pass them to the
    constructor): it keeps the per-edge link index that
    :meth:`links_of_edge` answers from.
    """

    edges: Dict[str, EdgeNode] = field(default_factory=dict)
    links: Dict[str, FiberLink] = field(default_factory=dict)
    _links_by_edge: Dict[str, List[FiberLink]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        for link in self.links.values():
            self._index(link)

    def _index(self, link: FiberLink) -> None:
        for end in link.endpoints:
            self._links_by_edge.setdefault(end, []).append(link)

    def add_edge_node(self, node: EdgeNode) -> None:
        if node.name in self.edges:
            raise ValueError(f"duplicate edge node {node.name!r}")
        self.edges[node.name] = node

    def add_link(self, link: FiberLink) -> None:
        if link.link_id in self.links:
            raise ValueError(f"duplicate link id {link.link_id!r}")
        for end in link.endpoints:
            if end not in self.edges:
                raise KeyError(f"link endpoint {end!r} is not a known edge")
        self.links[link.link_id] = link
        self._index(link)

    def links_of_edge(self, edge: str) -> List[FiberLink]:
        """The edge's links in link order, as a fresh list."""
        if edge not in self.edges:
            raise KeyError(f"unknown edge {edge!r}")
        return list(self._links_by_edge.get(edge, ()))

    def vendors(self) -> Set[str]:
        return {l.vendor for l in self.links.values()}

    def links_of_vendor(self, vendor: str) -> List[FiberLink]:
        return [l for l in self.links.values() if l.vendor == vendor]

    def edges_on(self, continent: Continent) -> List[EdgeNode]:
        return [e for e in self.edges.values() if e.continent is continent]

    def validate(self) -> None:
        """Check the published invariant: every edge has >= 3 links."""
        for name in self.edges:
            degree = len(self.links_of_edge(name))
            if degree < MIN_LINKS_PER_EDGE:
                raise ValueError(
                    f"edge {name!r} has only {degree} links; the backbone "
                    f"requires at least {MIN_LINKS_PER_EDGE} per edge"
                )

    def graph(self, failed_links: Optional[Iterable[str]] = None) -> nx.MultiGraph:
        """The backbone as a multigraph, optionally minus failed links."""
        import networkx as nx

        failed = set(failed_links or ())
        g = nx.MultiGraph()
        for name, node in self.edges.items():
            g.add_node(name, continent=node.continent)
        for link in self.links.values():
            if link.link_id not in failed:
                g.add_edge(link.a, link.b, key=link.link_id,
                           capacity=link.capacity_gbps)
        return g

    def edge_is_up(self, edge: str, failed_links: Iterable[str]) -> bool:
        """An edge fails only when *all* of its links have failed."""
        failed = set(failed_links)
        links = self.links_of_edge(edge)
        return any(l.link_id not in failed for l in links)

    def partitions(self, failed_links: Iterable[str]) -> List[Set[str]]:
        """Connected components of the backbone under link failures.

        Section 3.2: without careful planning, fiber cuts would cause
        network partitions that cut off an entire region.
        """
        import networkx as nx

        g = self.graph(failed_links)
        return [set(c) for c in nx.connected_components(g)]


def build_backbone(
    edge_count: int = 20,
    links_per_edge: int = MIN_LINKS_PER_EDGE,
    vendors: int = 12,
    continent_shares: Optional[Dict[Continent, float]] = None,
    seed: int = 0,
) -> BackboneTopology:
    """Build a synthetic backbone with the published shape.

    Edges are placed on continents according to ``continent_shares``
    (defaulting to the Table 4 distribution), then joined in a ring —
    guaranteeing connectivity — plus random chords until every edge has
    at least ``links_per_edge`` links.  Each link is assigned one of
    ``vendors`` synthetic fiber vendors.
    """
    import random as _random

    if edge_count < 3:
        raise ValueError("a backbone needs at least three edges")
    if links_per_edge < MIN_LINKS_PER_EDGE:
        raise ValueError(
            f"links_per_edge must be >= {MIN_LINKS_PER_EDGE} (section 6)"
        )
    if vendors < 1:
        raise ValueError("need at least one fiber vendor")

    rng = _random.Random(seed)
    shares = continent_shares or {
        Continent.NORTH_AMERICA: 0.37,
        Continent.EUROPE: 0.33,
        Continent.ASIA: 0.14,
        Continent.SOUTH_AMERICA: 0.10,
        Continent.AFRICA: 0.04,
        Continent.AUSTRALIA: 0.02,
    }
    continents = list(shares)
    weights = [shares[c] for c in continents]

    topo = BackboneTopology()
    for i in range(edge_count):
        continent = rng.choices(continents, weights=weights)[0]
        topo.add_edge_node(
            EdgeNode(
                name=f"edge{i:03d}",
                continent=continent,
                is_datacenter_region=(i % 3 == 0),
            )
        )

    names = sorted(topo.edges)
    vendor_names = [f"vendor{v:02d}" for v in range(vendors)]
    link_seq = 0

    def add(a: str, b: str) -> None:
        nonlocal link_seq
        link = FiberLink(
            link_id=f"fbl-{link_seq:04d}",
            a=a,
            b=b,
            vendor=rng.choice(vendor_names),
            segments=[
                OpticalSegment(f"seg-{link_seq:04d}-{s}",
                               length_km=rng.uniform(50, 2000))
                for s in range(rng.randint(1, 4))
            ],
        )
        link_seq += 1
        topo.add_link(link)

    for i, name in enumerate(names):
        add(name, names[(i + 1) % len(names)])

    # Random chords until the minimum degree holds.  Parallel links are
    # allowed: a real fiber path is often duplicated between two edges.
    while True:
        deficient = [
            n for n in names if len(topo.links_of_edge(n)) < links_per_edge
        ]
        if not deficient:
            break
        a = deficient[0]
        b = rng.choice([n for n in names if n != a])
        add(a, b)

    topo.validate()
    return topo
