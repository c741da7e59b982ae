"""Figure 3 — incidents per device per year by type (section 5.2).

Shape: higher-bisection devices (Core, CSA) have higher rates; CSA
rates exceed 1.0 in 2013 (1.7x) and 2014 (1.5x) then collapse; the
low-bisection population (ESW/SSW/FSW/RSW/CSW) sits below 1% in 2017.
"""

import pytest

from repro.runtime import Executor
from repro.runtime.analyses import IncidentRatesAnalysis
from repro.topology.devices import DeviceType
from repro.viz.tables import format_table


def test_fig3_incident_rate(benchmark, emit, paper_context):
    rates = benchmark(
        Executor().run, [IncidentRatesAnalysis()], paper_context
    )["incident_rates"]

    header = ["Year"] + [t.value for t in DeviceType]
    rows = []
    for year in rates.years:
        rows.append([year] + [
            f"{rates.rate(year, t):.2g}" if rates.rate(year, t) else "-"
            for t in DeviceType
        ])
    emit("fig3_incident_rate", format_table(
        header, rows,
        title="Figure 3: incidents per device per year (log-scale data)",
    ))

    assert rates.rate(2013, DeviceType.CSA) == pytest.approx(1.7, abs=0.05)
    assert rates.rate(2014, DeviceType.CSA) == pytest.approx(1.5, abs=0.05)
    for year in rates.years:
        core = rates.rate(year, DeviceType.CORE)
        rsw = rates.rate(year, DeviceType.RSW)
        assert core > rsw, f"bisection ordering violated in {year}"
    for t in (DeviceType.ESW, DeviceType.SSW, DeviceType.FSW,
              DeviceType.RSW, DeviceType.CSW):
        assert rates.rate(2017, t) < 0.01
