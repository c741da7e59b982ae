"""Incident distribution over device types and time (section 5.4,
Figures 7 and 8)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.topology.devices import DeviceType


@dataclass(frozen=True)
class IncidentDistribution:
    """Per-year incident counts by device type with both of the
    paper's normalizations."""

    counts: Dict[int, Dict[DeviceType, int]]
    baseline_year: int

    @property
    def years(self) -> List[int]:
        return sorted(self.counts)

    def count(self, year: int, device_type: DeviceType) -> int:
        return self.counts.get(year, {}).get(device_type, 0)

    def year_total(self, year: int) -> int:
        return sum(self.counts.get(year, {}).values())

    def fraction_of_year(self, year: int, device_type: DeviceType) -> float:
        """Figure 7: share of the year's incidents by type."""
        total = self.year_total(year)
        if total == 0:
            return 0.0
        return self.count(year, device_type) / total

    def normalized(self, year: int, device_type: DeviceType) -> float:
        """Figure 8: counts normalized to the fixed baseline total.

        The paper uses the total number of SEVs in 2017 as the fixed
        baseline so per-type growth stays visible across years.
        """
        baseline = self.year_total(self.baseline_year)
        if baseline == 0:
            raise ValueError(
                f"baseline year {self.baseline_year} has no incidents"
            )
        return self.count(year, device_type) / baseline

    def top_contributors(self, year: int, k: int = 2) -> List[DeviceType]:
        """The device types with the most incidents in a year.

        Section 5.4's headline: Cores (~34%) and RSWs (~28%) in 2017.
        """
        per_type = self.counts.get(year, {})
        ordered = sorted(per_type, key=lambda t: (-per_type[t], t.value))
        return ordered[:k]


def growth_from_totals(
    totals: Dict[int, int], first_year: int, last_year: int
) -> float:
    """The Figure 8 growth math over already-tallied yearly totals."""
    first = totals.get(first_year, 0)
    if first == 0:
        raise ValueError(f"no incidents in the base year {first_year}")
    return totals.get(last_year, 0) / first
