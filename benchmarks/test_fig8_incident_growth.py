"""Figure 8 — incidents per type normalized to the 2017 total (section 5.4).

Shape: general growth to 2015 across types; total SEVs grow 9.4x from
2011 to 2017; FSW/ESW incidents keep growing; RSW incidents steadily
increase.
"""

import pytest

from repro.runtime import Executor
from repro.runtime.analyses import DistributionAnalysis, GrowthAnalysis
from repro.topology.devices import DeviceType
from repro.viz.tables import format_table


def test_fig8_incident_growth(benchmark, emit, paper_context):
    # Normalized to the newest corpus year (2017); growth runs from
    # the first corpus year (2011) to it.
    results = benchmark(
        Executor().run, [DistributionAnalysis(), GrowthAnalysis()],
        paper_context,
    )
    dist, growth = results["distribution"], results["growth"]
    assert (dist.years[0], dist.baseline_year) == (2011, 2017)

    header = ["Year"] + [t.value for t in DeviceType]
    rows = [
        [year] + [f"{dist.normalized(year, t):.3f}" for t in DeviceType]
        for year in dist.years
    ]
    emit("fig8_incident_growth", format_table(
        header, rows,
        title=("Figure 8: incidents per type, normalized to the total "
               f"number of SEVs in 2017 (growth 2011->2017: {growth:.1f}x)"),
    ))

    assert growth == pytest.approx(9.4, abs=0.2)
    # RSW incidents steadily increase (Potharaju et al. corroboration).
    rsw = [dist.count(y, DeviceType.RSW) for y in dist.years]
    assert rsw[-1] > rsw[0] * 5
    # FSW and ESW keep growing after introduction.
    for t in (DeviceType.FSW, DeviceType.ESW):
        series = [dist.count(y, t) for y in (2015, 2016, 2017)]
        assert series == sorted(series)
