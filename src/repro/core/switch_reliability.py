"""Switch reliability: MTBI and p75IRT (section 5.6, Figures 12-14)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.fleet.population import FleetModel, HOURS_PER_YEAR
from repro.incidents.query import SEVQuery
from repro.incidents.store import SEVStore
from repro.stats.mtbf import mtbi_device_hours
from repro.stats.mttr import p75
from repro.topology.devices import (
    CLUSTER_TYPES,
    FABRIC_TYPES,
    DeviceType,
    NetworkDesign,
)


@dataclass(frozen=True)
class SwitchReliability:
    """Per-year, per-type MTBI (device-hours) and p75IRT (hours)."""

    mtbi_h: Dict[int, Dict[DeviceType, float]]
    p75_irt_h: Dict[int, Dict[DeviceType, float]]

    @property
    def years(self) -> List[int]:
        return sorted(set(self.mtbi_h) | set(self.p75_irt_h))

    def mtbi(self, year: int, device_type: DeviceType) -> float:
        try:
            return self.mtbi_h[year][device_type]
        except KeyError:
            raise KeyError(
                f"no MTBI for {device_type.value} in {year}"
            ) from None

    def p75_irt(self, year: int, device_type: DeviceType) -> float:
        try:
            return self.p75_irt_h[year][device_type]
        except KeyError:
            raise KeyError(
                f"no p75IRT for {device_type.value} in {year}"
            ) from None

    def mtbi_spread_orders(self, year: int) -> float:
        """Orders of magnitude between the largest and smallest MTBI.

        Three orders in 2017 (Cores ~4e4 h, RSWs ~1e7 h).
        """
        import numpy as np

        values = [v for v in self.mtbi_h.get(year, {}).values()
                  if np.isfinite(v) and v > 0]
        if len(values) < 2:
            raise ValueError(f"not enough MTBI values in {year}")
        return float(np.log10(max(values) / min(values)))

    def design_mtbi(self, year: int, design: NetworkDesign) -> float:
        """Average MTBI of a design's device types (section 5.6's
        fabric 2,636,818 h versus cluster 822,518 h comparison)."""
        types = CLUSTER_TYPES if design is NetworkDesign.CLUSTER else FABRIC_TYPES
        if design is NetworkDesign.SHARED:
            raise ValueError("SHARED is not a design aggregate")
        import numpy as np

        values = [
            self.mtbi_h[year][t]
            for t in types
            if t in self.mtbi_h.get(year, {})
            and np.isfinite(self.mtbi_h[year][t])
        ]
        if not values:
            raise ValueError(f"no {design.value} MTBI values in {year}")
        return sum(values) / len(values)

    def fabric_advantage(self, year: int) -> float:
        """How many times less frequently fabric switches fail."""
        return (self.design_mtbi(year, NetworkDesign.FABRIC)
                / self.design_mtbi(year, NetworkDesign.CLUSTER))


def switch_reliability_from_counts(
    per_year: Dict[int, Dict[DeviceType, int]],
    fleet: FleetModel,
    p75_lookup: Callable[[int, DeviceType], float],
) -> SwitchReliability:
    """The Figures 12/13 math over already-tallied counts.

    ``p75_lookup`` supplies the p75 resolution time of one (year,
    device type) cell of ``per_year``;
    :class:`repro.runtime.analyses.SwitchReliabilityAnalysis` answers
    it from its mergeable quantile sketches.  MTBI follows the paper's
    device-hours convention: the type's population-hours in the year
    over its incident count.
    """
    mtbi: Dict[int, Dict[DeviceType, float]] = {}
    p75_irt: Dict[int, Dict[DeviceType, float]] = {}
    for year, per_type in per_year.items():
        if year not in fleet.snapshots:
            continue
        mtbi[year] = {}
        p75_irt[year] = {}
        for device_type, incidents in per_type.items():
            population = fleet.count(year, device_type)
            if population == 0:
                continue
            mtbi[year][device_type] = mtbi_device_hours(
                population, incidents, HOURS_PER_YEAR
            )
            p75_irt[year][device_type] = p75_lookup(year, device_type)
    return SwitchReliability(mtbi_h=mtbi, p75_irt_h=p75_irt)


def irt_vs_fleet_size(
    store: SEVStore, fleet: FleetModel
) -> List[Tuple[float, float]]:
    """Figure 14: (p75IRT across all types, normalized switches) pairs."""
    query = SEVQuery(store)
    points = []
    for year in fleet.years:
        durations = query.durations(year)
        if not durations:
            continue
        points.append((p75(durations), fleet.normalized_total(year)))
    return sorted(points)


def irt_fleet_correlation(store: SEVStore, fleet: FleetModel) -> float:
    """Pearson correlation of p75IRT with fleet size.

    The paper observes a positive correlation: larger networks
    increase the time humans take to resolve incidents.
    """
    points = irt_vs_fleet_size(store, fleet)
    if len(points) < 3:
        raise ValueError("need at least three yearly points to correlate")
    xs, ys = zip(*points)
    import numpy as np

    return float(np.corrcoef(xs, ys)[0, 1])
