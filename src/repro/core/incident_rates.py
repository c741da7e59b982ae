"""Incident rates by device type (section 5.2, Figure 3).

The incident rate of a device type is ``r = i / n``: incidents caused
by the type over the active population of the type.  The rate can
exceed 1.0 — each device of the type caused more than one incident on
average — which is exactly what CSAs did in 2013 and 2014.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.fleet.population import FleetModel
from repro.topology.devices import DeviceType


@dataclass(frozen=True)
class IncidentRateSeries:
    """Per-year, per-type incident rates (the Figure 3 series)."""

    rates: Dict[int, Dict[DeviceType, float]]

    @property
    def years(self) -> List[int]:
        return sorted(self.rates)

    def rate(self, year: int, device_type: DeviceType) -> float:
        return self.rates.get(year, {}).get(device_type, 0.0)

    def series(self, device_type: DeviceType) -> Dict[int, float]:
        return {year: self.rate(year, device_type) for year in self.years}

    def max_rate_type(self, year: int) -> DeviceType:
        per_type = self.rates.get(year, {})
        if not per_type:
            raise KeyError(f"no rates for year {year}")
        return max(per_type, key=lambda t: (per_type[t], t.value))

    def ordered_by_bisection(self, year: int) -> List[DeviceType]:
        """Device types present that year, highest bisection rank first.

        Section 5.2's first observation compares rates along this
        ordering (Cores and CSAs versus RSWs).
        """
        per_type = self.rates.get(year, {})
        return sorted(per_type, key=lambda t: -t.bisection_rank)


def rates_from_counts(
    counts: Dict[int, Dict[DeviceType, int]], fleet: FleetModel
) -> IncidentRateSeries:
    """The Figure 3 math over already-tallied per-year/type counts.

    :class:`repro.runtime.analyses.IncidentRatesAnalysis` runs it over
    its fold state; any path that produces the same counts (a
    :class:`~repro.incidents.query.SEVQuery` GROUP BY included)
    produces the same rates.
    """
    rates: Dict[int, Dict[DeviceType, float]] = {}
    for year in sorted(counts):
        if year not in fleet.snapshots:
            continue
        per_type: Dict[DeviceType, float] = {}
        for device_type in DeviceType:
            population = fleet.count(year, device_type)
            if population == 0:
                # A type absent from the fleet that year has no point
                # on the figure.
                continue
            per_type[device_type] = (
                counts.get(year, {}).get(device_type, 0) / population
            )
        rates[year] = per_type
    return IncidentRateSeries(rates=rates)
