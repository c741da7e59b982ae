"""Figure 13 — p75 incident resolution time by type per year (section 5.6).

Shape: p75IRT increases similarly across switch types, from around an
hour in 2011 toward hundreds of hours in 2017 (log-scale axis 1e-1 to
1e3 in the paper).
"""

from repro.runtime import Executor
from repro.runtime.analyses import SwitchReliabilityAnalysis
from repro.topology.devices import DeviceType
from repro.viz.tables import format_table


def test_fig13_p75irt(benchmark, emit, paper_context):
    sr = benchmark(
        Executor().run, [SwitchReliabilityAnalysis()], paper_context
    )["switch_reliability"]

    header = ["Year"] + [t.value for t in DeviceType]
    rows = []
    for year in sr.years:
        cells = []
        for t in DeviceType:
            value = sr.p75_irt_h.get(year, {}).get(t)
            cells.append(f"{value:.3g}" if value else "-")
        rows.append([year] + cells)
    emit("fig13_p75irt", format_table(
        header, rows,
        title="Figure 13: p75 incident resolution time (hours)",
    ))

    for t in (DeviceType.CORE, DeviceType.RSW, DeviceType.CSW):
        first = sr.p75_irt(2011, t)
        last = sr.p75_irt(2017, t)
        assert 0.1 < first < 10, f"{t.value} 2011 p75IRT out of band"
        assert 100 < last < 1000, f"{t.value} 2017 p75IRT out of band"
        assert last > 20 * first
    # "Increased similarly across switch types": same-year values stay
    # within one order of magnitude of each other.
    for year in sr.years:
        values = [v for v in sr.p75_irt_h[year].values() if v]
        if len(values) > 1:
            assert max(values) / min(values) < 20
