"""Figure 7 — fraction of incidents per year by device type (section 5.4).

Shape: cluster-specific types (CSA/CSW) shrink over time; RSW and Core
dominate 2017 (28% and 34%); fabric types appear from 2015 and stay
modest.
"""

import pytest

from repro.runtime import Executor
from repro.runtime.analyses import DistributionAnalysis
from repro.topology.devices import DeviceType
from repro.viz.tables import format_table


def test_fig7_incident_fraction(benchmark, emit, paper_context):
    dist = benchmark(
        Executor().run, [DistributionAnalysis()], paper_context
    )["distribution"]

    header = ["Year"] + [t.value for t in DeviceType]
    rows = [
        [year] + [f"{dist.fraction_of_year(year, t):.2f}"
                  for t in DeviceType]
        for year in dist.years
    ]
    emit("fig7_incident_fraction", format_table(
        header, rows,
        title="Figure 7: fraction of incidents per year by device type",
    ))

    assert dist.fraction_of_year(2017, DeviceType.CORE) == pytest.approx(
        0.34, abs=0.02
    )
    assert dist.fraction_of_year(2017, DeviceType.RSW) == pytest.approx(
        0.28, abs=0.02
    )
    # CSA share collapses from its 2013 peak.
    assert dist.fraction_of_year(2013, DeviceType.CSA) > 0.3
    assert dist.fraction_of_year(2017, DeviceType.CSA) < 0.02
    # No fabric incidents before deployment.
    for year in (2011, 2012, 2013, 2014):
        for t in (DeviceType.ESW, DeviceType.SSW, DeviceType.FSW):
            assert dist.fraction_of_year(year, t) == 0.0
