"""Cluster-versus-fabric comparison (section 5.5, Figures 9-11)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.fleet.population import FleetModel
from repro.topology.devices import (
    CLUSTER_TYPES,
    FABRIC_TYPES,
    DeviceType,
    NetworkDesign,
)


@dataclass(frozen=True)
class DesignComparison:
    """Per-year incident counts aggregated by network design."""

    counts: Dict[int, Dict[NetworkDesign, int]]
    baseline_year: int
    fleet: FleetModel

    @property
    def years(self) -> List[int]:
        return sorted(self.counts)

    def count(self, year: int, design: NetworkDesign) -> int:
        return self.counts.get(year, {}).get(design, 0)

    def normalized(self, year: int, design: NetworkDesign) -> float:
        """Figure 9: design incidents over the fixed baseline total."""
        baseline = sum(self.counts.get(self.baseline_year, {}).values())
        if baseline == 0:
            raise ValueError(
                f"baseline year {self.baseline_year} has no design incidents"
            )
        return self.count(year, design) / baseline

    def per_device(self, year: int, design: NetworkDesign) -> float:
        """Figure 10: design incidents over the design's population."""
        population = self.fleet.design_count(year, design)
        count = self.count(year, design)
        if population == 0:
            if count == 0:
                return 0.0
            raise ValueError(
                f"{count} {design.value} incidents in {year} with no "
                f"{design.value} devices in the fleet"
            )
        return count / population

    def fabric_to_cluster_ratio(self, year: int) -> float:
        """Fabric incidents as a fraction of cluster incidents
        (~50% in 2017, section 5.5)."""
        cluster = self.count(year, NetworkDesign.CLUSTER)
        if cluster == 0:
            raise ValueError(f"no cluster incidents in {year}")
        return self.count(year, NetworkDesign.FABRIC) / cluster

    def cluster_inflection_year(self) -> int:
        """The year cluster incidents peaked (the Figure 9 inflection,
        2015 in the paper -- when fabric deployment began)."""
        series = {
            y: self.count(y, NetworkDesign.CLUSTER) for y in self.years
        }
        if not series:
            raise ValueError("empty design comparison")
        return max(series, key=lambda y: (series[y], -y))


def design_counts_from_type_counts(
    per_year: Dict[int, Dict[DeviceType, int]],
) -> Dict[int, Dict[NetworkDesign, int]]:
    """Aggregate per-type counts into the paper's design buckets.

    Only design-specific device types participate (CSA/CSW for
    cluster, ESW/SSW/FSW for fabric); Cores and RSWs are shared by
    both designs and excluded, as in the paper's definition.
    """
    counts: Dict[int, Dict[NetworkDesign, int]] = {}
    for year, per_type in per_year.items():
        counts[year] = {
            NetworkDesign.CLUSTER: sum(
                per_type.get(t, 0) for t in CLUSTER_TYPES
            ),
            NetworkDesign.FABRIC: sum(
                per_type.get(t, 0) for t in FABRIC_TYPES
            ),
        }
    return counts


def population_breakdown(fleet: FleetModel) -> Dict[int, Dict[DeviceType, float]]:
    """Figure 11: per-year fraction of the fleet by device type."""
    out: Dict[int, Dict[DeviceType, float]] = {}
    for year in fleet.years:
        out[year] = {
            device_type: fleet.fraction(year, device_type)
            for device_type in DeviceType
            if fleet.count(year, device_type) > 0
        }
    return out
