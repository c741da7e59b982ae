"""The per-edge link index behind ``BackboneTopology.links_of_edge``.

The index must answer exactly what a scan of every link with
``FiberLink.touches`` answers: the same link objects in link order,
parallel links included.
"""

from collections import Counter

import pytest

from repro.simulation.backbone_sim import BackboneSimulator
from repro.simulation.scenarios import paper_backbone_scenario
from repro.topology.backbone import (
    BackboneTopology,
    Continent,
    EdgeNode,
    FiberLink,
    build_backbone,
)
from repro.topology.world import build_paper_world

SEEDS = (1, 7, 13)

TOPOLOGIES = {
    "build_backbone": lambda seed: build_backbone(seed=seed),
    "simulator": lambda seed: BackboneSimulator(
        paper_backbone_scenario(seed=seed)
    ).build_world()[0],
    "paper_world": lambda seed: build_paper_world(seed=seed).backbone,
}


def scanned(topo, edge):
    """The brute-force answer the index replaces."""
    return [link for link in topo.links.values() if link.touches(edge)]


def parallel_pairs(topo):
    counts = Counter(frozenset(link.endpoints) for link in topo.links.values())
    return sum(1 for n in counts.values() if n > 1)


def assert_matches_scan(topo):
    for edge in topo.edges:
        indexed = topo.links_of_edge(edge)
        expected = scanned(topo, edge)
        assert [l.link_id for l in indexed] == [l.link_id for l in expected]
        assert all(a is b for a, b in zip(indexed, expected))


@pytest.mark.parametrize("source", sorted(TOPOLOGIES))
@pytest.mark.parametrize("seed", SEEDS)
def test_index_matches_scan(source, seed):
    assert_matches_scan(TOPOLOGIES[source](seed))


def test_built_topologies_cover_parallel_links():
    # The comparison above is only as good as its inputs: every source
    # must produce duplicated fiber paths at one of the seeds at least.
    for build in TOPOLOGIES.values():
        assert any(parallel_pairs(build(seed)) for seed in SEEDS)


@pytest.mark.parametrize("seed", SEEDS)
def test_flaky_vendor_link_is_indexed_on_both_ends(seed):
    topo = TOPOLOGIES["simulator"](seed)
    (flaky,) = [l for l in topo.links.values() if l.vendor == "vendor-flaky"]
    for end in flaky.endpoints:
        assert flaky in topo.links_of_edge(end)
        assert topo.links_of_edge(end)[-1] is flaky


def hand_built():
    edges = {
        name: EdgeNode(name, Continent.EUROPE) for name in ("a", "b", "c")
    }
    pairs = [("a", "b"), ("b", "c"), ("c", "a"), ("a", "b"), ("b", "a")]
    return edges, {
        f"l{i}": FiberLink(f"l{i}", x, y, vendor="v")
        for i, (x, y) in enumerate(pairs)
    }


def test_links_passed_to_the_constructor_are_indexed():
    edges, links = hand_built()
    topo = BackboneTopology(edges=edges, links=links)
    assert_matches_scan(topo)
    assert [l.link_id for l in topo.links_of_edge("a")] == [
        "l0", "l2", "l3", "l4"
    ]
    topo.add_link(FiberLink("l5", "c", "a", vendor="v"))
    assert_matches_scan(topo)
    assert topo.links_of_edge("a")[-1].link_id == "l5"


def test_returned_list_is_a_copy():
    edges, links = hand_built()
    topo = BackboneTopology(edges=edges, links=links)
    before = [l.link_id for l in topo.links_of_edge("a")]
    returned = topo.links_of_edge("a")
    returned.clear()
    returned.append(links["l1"])
    assert [l.link_id for l in topo.links_of_edge("a")] == before
    assert_matches_scan(topo)


def test_unknown_edge_raises():
    edges, links = hand_built()
    topo = BackboneTopology(edges=edges, links=links)
    with pytest.raises(KeyError, match="ghost"):
        topo.links_of_edge("ghost")
    lonely = BackboneTopology()
    lonely.add_edge_node(EdgeNode("solo", Continent.ASIA))
    assert lonely.links_of_edge("solo") == []
