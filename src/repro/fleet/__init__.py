"""Fleet population substrate.

The paper normalizes nearly every intra data center figure by the
number of active devices of each type in each year (Figures 3, 5, 10,
11) and correlates reliability with fleet growth (Figures 6, 14).
This package models that fleet: per-type populations per year, and the
public employee-count series used as the Figure 6 denominator.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.fleet.population": (
        "FleetModel", "FleetSnapshot", "HOURS_PER_YEAR", "paper_fleet",
    ),
    "repro.fleet.employees": ("EmployeeModel", "paper_employees"),
})
