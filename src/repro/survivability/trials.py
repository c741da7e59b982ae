"""Survivability trials: the corpus the survivability analyses fold.

One :class:`FailureTrial` record is one (design, trial, fraction)
observation: draw a correlated failure order over a design's devices
(:mod:`repro.survivability.correlated`), fail the order's prefix at the
fraction, and count what survives — RSWs still reaching a live Core,
and links with both endpoints alive.  The counts are *integers*: the
analyses sum them across any shard/batch partition and divide once at
finalize, which is why batch == stream == sharded(+processes) ==
columnar holds bit-identically for every survivability artifact.

The fraction points fail nested prefixes of one order, so one backward
pass per trial counts them all: revive the devices from the order's
last one back to its 5% cut in a union-find over an adjacency map of
the network's links, keep at each component root whether a live Core
is in it and how many RSWs it holds, and read both running counts at
each cut.  :func:`reference_trials` is the oracle the pass is tested
against: a networkx sweep that rebuilds the surviving subgraph and its
components at every fraction point.  networkx is loaded only for the
storm mode's blast radius and by that oracle.

The trial corpus is generated, not simulated over time: the two
reference networks (one classic cluster design, one fabric design,
fixed small dimensions) are rebuilt from the seed on demand, so a
:class:`TrialSet` is a pure function of ``(seed, correlated knobs)``
and fingerprints content-addressably for the result cache.

``survivability.sweep`` is this module's fault site: chaos drills
crash a per-trial computation mid-sweep and the generator retries that
trial once under suppression — the retried trial is the same pure
function of the seed, so the finalized report digest cannot move.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.survivability.correlated import correlated_failure_order
from repro.topology.cluster import build_cluster_network
from repro.topology.devices import DeviceType
from repro.topology.fabric import build_fabric_network
from repro.topology.graph import build_graph, downstream_devices

__all__ = [
    "DESIGNS",
    "FRACTION_PERCENTS",
    "FailureTrial",
    "TrialSet",
    "default_correlated_knobs",
    "design_networks",
    "generate_trials",
    "reference_trials",
]

#: The two intra data center designs the study compares (section 3.1).
DESIGNS = ("cluster", "fabric")

#: Failed-fraction sweep points, in percent (5% steps up to half the
#: fleet).  Integers so trial records stay float-free.
FRACTION_PERCENTS = (5, 10, 15, 20, 25, 30, 35, 40, 45, 50)

#: Correlation knob defaults; all-defaults degrades to the independent
#: failure model bit-identically.
_KNOB_DEFAULTS = {
    "power_domain_size": 1,
    "storm_bias": 0.0,
    "maintenance_clustering": 0.0,
    "trials": 24,
}

# Reference network dimensions: small enough that a full sweep is
# sub-second, large enough that both designs have every aggregation
# layer and a two-digit rack count.
_CLUSTER_DIMS = dict(clusters=2, racks_per_cluster=8, csas=2, cores=4)
_FABRIC_DIMS = dict(pods=2, racks_per_pod=8, ssws=4, esws=2, cores=4)


@dataclass(frozen=True)
class FailureTrial:
    """One survivability observation — integer counts only."""

    design: str
    trial: int
    fraction_idx: int
    #: The failed fraction as an integer percent (5, 10, ... 50).
    fraction_pct: int
    #: RSWs alive and connected to at least one alive Core.
    connected_rsw: int
    total_rsw: int
    #: Links with both endpoints alive — the capacity-remaining proxy.
    surviving_links: int
    total_links: int


def default_correlated_knobs(
    correlated: Optional[Dict] = None,
) -> Dict:
    """The full knob mapping with defaults applied, strictly validated."""
    knobs = dict(_KNOB_DEFAULTS)
    for key, value in (correlated or {}).items():
        if key not in _KNOB_DEFAULTS:
            raise ValueError(
                f"unknown correlated-failure knob {key!r} "
                f"(expected among {sorted(_KNOB_DEFAULTS)})"
            )
        knobs[key] = value
    if not isinstance(knobs["power_domain_size"], int) \
            or isinstance(knobs["power_domain_size"], bool) \
            or knobs["power_domain_size"] < 1:
        raise ValueError("power_domain_size must be an integer >= 1")
    if not isinstance(knobs["trials"], int) \
            or isinstance(knobs["trials"], bool) or knobs["trials"] < 1:
        raise ValueError("trials must be an integer >= 1")
    if knobs["storm_bias"] < 0:
        raise ValueError("storm_bias must be non-negative")
    if not 0.0 <= knobs["maintenance_clustering"] <= 1.0:
        raise ValueError("maintenance_clustering must be within [0, 1]")
    return knobs


def design_networks():
    """The two reference networks, rebuilt fresh (deterministically)."""
    return {
        "cluster": build_cluster_network("dc1", "region1", **_CLUSTER_DIMS),
        "fabric": build_fabric_network("dc2", "region1", **_FABRIC_DIMS),
    }


class TrialSet:
    """A generated trial corpus plus its provenance.

    ``records()`` yields :class:`FailureTrial` rows in canonical order
    (design, trial, fraction); ``retries`` counts per-trial recoveries
    from the ``survivability.sweep`` fault site (never part of the
    content — a retried trial recomputes the identical records).
    """

    def __init__(
        self,
        records: List[FailureTrial],
        seed: int,
        knobs: Dict,
        retries: int = 0,
    ) -> None:
        self._records = tuple(records)
        self.seed = seed
        self.knobs = dict(knobs)
        self.retries = retries

    def __len__(self) -> int:
        return len(self._records)

    def records(self) -> Iterator[FailureTrial]:
        return iter(self._records)


def _blast_radius(network, storm_bias: float) -> Dict[str, int]:
    """Per-device blast radius, which only the storm mode reads."""
    if storm_bias <= 0:
        return {}
    graph = build_graph(network)
    return {
        name: len(downstream_devices(graph, name)) for name in graph.nodes
    }


def _failure_order(
    design: str,
    trial: int,
    seed: int,
    knobs: Dict,
    devices: Iterable[str],
    blast_radius: Dict[str, int],
) -> List[str]:
    """The trial's correlated failure order, seeded per (design, trial)."""
    return correlated_failure_order(
        devices,
        random.Random(f"{seed}:{design}:{trial}"),
        power_domain_size=knobs["power_domain_size"],
        storm_bias=knobs["storm_bias"],
        maintenance_clustering=knobs["maintenance_clustering"],
        blast_radius=blast_radius,
    )


def _records(
    design: str,
    trial: int,
    counts: List[Tuple[int, int]],
    total_rsw: int,
    total_links: int,
) -> List[FailureTrial]:
    """One record per fraction point from its (connected, surviving)."""
    return [
        FailureTrial(
            design=design,
            trial=trial,
            fraction_idx=idx,
            fraction_pct=pct,
            connected_rsw=connected,
            total_rsw=total_rsw,
            surviving_links=surviving,
            total_links=total_links,
        )
        for idx, (pct, (connected, surviving))
        in enumerate(zip(FRACTION_PERCENTS, counts))
    ]


def _survival_curve(
    order: List[str],
    adjacency: Dict[str, List[str]],
    rsws: Set[str],
    cores: Set[str],
) -> List[Tuple[int, int]]:
    """(connected RSWs, surviving links) at every fraction point.

    Walks ``order`` backwards, reviving one device at a time into a
    union-find.  Each component root records whether a live Core is in
    the component and how many RSWs it holds, so the count of RSWs
    reaching a Core moves only when a revival merges components.  A
    link survives from the moment its second endpoint is revived.
    """
    parent: Dict[str, str] = {}
    has_core: Dict[str, bool] = {}
    rsw_count: Dict[str, int] = {}

    def find(name: str) -> str:
        while parent[name] != name:
            parent[name] = parent[parent[name]]
            name = parent[name]
        return name

    def reaching(root: str) -> int:
        return rsw_count[root] if has_core[root] else 0

    connected = surviving = 0
    counts = []
    revived = len(order)
    cuts = [(pct * len(order)) // 100 for pct in FRACTION_PERCENTS]
    for cut in reversed(cuts):
        while revived > cut:
            revived -= 1
            device = order[revived]
            parent[device] = device
            has_core[device] = device in cores
            rsw_count[device] = int(device in rsws)
            connected += reaching(device)
            for peer in adjacency[device]:
                if peer not in parent:
                    continue
                surviving += 1
                root, other = find(device), find(peer)
                if root == other:
                    continue
                before = reaching(root) + reaching(other)
                parent[other] = root
                has_core[root] = has_core[root] or has_core[other]
                rsw_count[root] += rsw_count[other]
                connected += reaching(root) - before
        counts.append((connected, surviving))
    counts.reverse()
    return counts


def _trial_records(
    design: str,
    trial: int,
    seed: int,
    knobs: Dict,
    adjacency: Dict[str, List[str]],
    rsws: Set[str],
    cores: Set[str],
    total_links: int,
    blast_radius: Dict[str, int],
) -> List[FailureTrial]:
    """All fraction points of one trial from one backward pass.

    The fraction points fail nested prefixes of one correlated order,
    so one walk from the order's last device back to its 5% cut passes
    every point: :func:`_survival_curve` reads both counts at each cut
    on the way, 50% first, and per-trial counts are monotone
    non-increasing in the fraction by construction.
    """
    from repro.faultline import hooks
    from repro.faultline.plan import SurvivabilitySweepCrash

    if hooks.fire("survivability.sweep"):
        raise SurvivabilitySweepCrash(
            f"injected crash in survivability sweep "
            f"({design} trial {trial})"
        )
    order = _failure_order(
        design, trial, seed, knobs, adjacency, blast_radius
    )
    counts = _survival_curve(order, adjacency, rsws, cores)
    return _records(design, trial, counts, len(rsws), total_links)


def generate_trials(
    seed: int = 1,
    correlated: Optional[Dict] = None,
) -> TrialSet:
    """Generate the survivability trial corpus for ``seed``.

    A pure function of ``(seed, correlated knobs)``: both reference
    networks are rebuilt, each design runs ``trials`` correlated
    failure orders, and every order is evaluated at every
    :data:`FRACTION_PERCENTS` point.  A trial crashed through the
    ``survivability.sweep`` fault site is retried once under
    suppression (counted in :attr:`TrialSet.retries`).
    """
    from repro.faultline import hooks
    from repro.faultline.plan import SurvivabilitySweepCrash

    knobs = default_correlated_knobs(correlated)
    records: List[FailureTrial] = []
    retries = 0
    for design, network in sorted(design_networks().items()):
        adjacency: Dict[str, List[str]] = {
            name: [] for name in network.devices
        }
        for a, b in network.links:
            adjacency[a].append(b)
            if b != a:
                adjacency[b].append(a)
        rsws = {d.name for d in network.devices_of_type(DeviceType.RSW)}
        cores = {d.name for d in network.devices_of_type(DeviceType.CORE)}
        blast_radius = _blast_radius(network, knobs["storm_bias"])
        args = (seed, knobs, adjacency, rsws, cores, len(network.links),
                blast_radius)
        for trial in range(knobs["trials"]):
            try:
                rows = _trial_records(design, trial, *args)
            except SurvivabilitySweepCrash:
                retries += 1
                with hooks.suppressed("survivability.sweep"):
                    rows = _trial_records(design, trial, *args)
            records.extend(rows)
    return TrialSet(records, seed=seed, knobs=knobs, retries=retries)


def reference_trials(
    seed: int = 1,
    correlated: Optional[Dict] = None,
) -> List[FailureTrial]:
    """The trial records by a networkx sweep, one per fraction point.

    The oracle :func:`generate_trials` is tested against, as
    :func:`repro.runtime.reference_fold` is for the executor: the same
    failure orders, but every fraction point builds the surviving
    subgraph and its connected components anew.  It has no fault site
    and returns the records in canonical order.
    """
    import networkx as nx

    knobs = default_correlated_knobs(correlated)
    records: List[FailureTrial] = []
    for design, network in sorted(design_networks().items()):
        graph = build_graph(network)
        rsws = sorted(
            d.name for d in network.devices_of_type(DeviceType.RSW)
        )
        cores = sorted(
            d.name for d in network.devices_of_type(DeviceType.CORE)
        )
        links = list(network.links)
        blast_radius = _blast_radius(network, knobs["storm_bias"])
        for trial in range(knobs["trials"]):
            order = _failure_order(
                design, trial, seed, knobs, graph.nodes, blast_radius
            )
            counts = []
            for pct in FRACTION_PERCENTS:
                failed = frozenset(order[: (pct * len(order)) // 100])
                alive = graph.subgraph(
                    n for n in graph.nodes if n not in failed
                )
                reachable = set()
                for component in nx.connected_components(alive):
                    if any(core in component for core in cores):
                        reachable |= component
                counts.append((
                    sum(1 for rsw in rsws if rsw in reachable),
                    sum(1 for a, b in links
                        if a not in failed and b not in failed),
                ))
            records.extend(
                _records(design, trial, counts, len(rsws), len(links))
            )
    return records
