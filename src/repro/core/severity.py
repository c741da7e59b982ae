"""Incident severity analyses (section 5.3, Figures 4-6)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.fleet.employees import EmployeeModel
from repro.fleet.population import FleetModel
from repro.incidents.query import SEVQuery
from repro.incidents.sev import Severity
from repro.incidents.store import SEVStore
from repro.topology.devices import (
    CLUSTER_TYPES,
    FABRIC_TYPES,
    DeviceType,
)


@dataclass(frozen=True)
class SeverityByDevice:
    """Figure 4: how each severity level distributes across devices."""

    counts: Dict[Severity, Dict[DeviceType, int]]
    year: int

    def level_total(self, severity: Severity) -> int:
        return sum(self.counts.get(severity, {}).values())

    @property
    def total(self) -> int:
        return sum(self.level_total(s) for s in Severity)

    def level_share(self, severity: Severity) -> float:
        """The N=... annotations of Figure 4 (82/13/5 in the paper)."""
        total = self.total
        if total == 0:
            return 0.0
        return self.level_total(severity) / total

    def device_fraction(
        self, severity: Severity, device_type: DeviceType
    ) -> float:
        """Share of one severity row attributed to one device type."""
        row_total = self.level_total(severity)
        if row_total == 0:
            return 0.0
        return self.counts.get(severity, {}).get(device_type, 0) / row_total

    def device_mix(self, device_type: DeviceType) -> Dict[Severity, float]:
        """A device type's own severity mix (e.g. Core 81/15/4)."""
        total = sum(
            self.counts.get(s, {}).get(device_type, 0) for s in Severity
        )
        if total == 0:
            return {s: 0.0 for s in Severity}
        return {
            s: self.counts.get(s, {}).get(device_type, 0) / total
            for s in Severity
        }

    def design_totals(self, severity: Severity) -> Tuple[int, int]:
        """(cluster, fabric) counts at one level, for the 5.3 contrast."""
        row = self.counts.get(severity, {})
        cluster = sum(row.get(t, 0) for t in CLUSTER_TYPES)
        fabric = sum(row.get(t, 0) for t in FABRIC_TYPES)
        return cluster, fabric


@dataclass(frozen=True)
class SeverityRateSeries:
    """Figure 5: SEVs per device per year, by severity level."""

    rates: Dict[int, Dict[Severity, float]]

    @property
    def years(self) -> List[int]:
        return sorted(self.rates)

    def rate(self, year: int, severity: Severity) -> float:
        return self.rates.get(year, {}).get(severity, 0.0)

    def inflection_year(self, severity: Severity = Severity.SEV3) -> int:
        """The year the per-device rate peaked (2015 in the paper,
        corresponding to the fabric deployment)."""
        series = {y: self.rate(y, severity) for y in self.years}
        if not series:
            raise ValueError("empty severity rate series")
        return max(series, key=lambda y: (series[y], -y))


def severity_rates_from_counts(
    per_year: Dict[int, Dict[Severity, int]], fleet: FleetModel
) -> SeverityRateSeries:
    """The Figure 5 math over already-tallied per-year severity counts.

    :class:`repro.runtime.analyses.SeverityOverTimeAnalysis` runs it
    over its fold state, in batch and over a live stream alike.
    """
    rates: Dict[int, Dict[Severity, float]] = {}
    for year, per_sev in per_year.items():
        if year not in fleet.snapshots:
            continue
        total_devices = fleet.total(year)
        if total_devices == 0:
            continue
        rates[year] = {
            severity: n / total_devices for severity, n in per_sev.items()
        }
    return SeverityRateSeries(rates=rates)


def sevs_per_employee(
    store: SEVStore, employees: EmployeeModel
) -> Dict[int, float]:
    """Yearly SEVs per employee (the section 5.3 engineer-count test)."""
    out = {}
    for year, count in SEVQuery(store).count_by_year().items():
        if year in employees.by_year:
            out[year] = count / employees.count(year)
    return out


def switches_vs_employees(
    fleet: FleetModel, employees: EmployeeModel
) -> List[Tuple[int, float]]:
    """Figure 6: (employees, normalized switches) points per year.

    The paper concludes switches grew in proportion to employees, so
    engineer headcount does not explain SEV growth.
    """
    points = []
    for year in fleet.years:
        if year in employees.by_year:
            points.append(
                (employees.count(year), fleet.normalized_total(year))
            )
    return sorted(points)
