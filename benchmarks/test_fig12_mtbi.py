"""Figure 12 — mean time between incidents by type per year (section 5.6).

Paper anchors for 2017: Cores 39,495 device-hours, RSWs 9,958,828
device-hours (three orders of magnitude apart); fabric switches fail
3.2x less often than cluster switches (2,636,818 vs. 822,518); CSA
MTBI improves by two orders of magnitude between 2014 and 2016.
"""

import math

import pytest

from repro.runtime import Executor
from repro.runtime.analyses import SwitchReliabilityAnalysis
from repro.topology.devices import DeviceType, NetworkDesign
from repro.viz.tables import format_table


def test_fig12_mtbi(benchmark, emit, paper_context):
    sr = benchmark(
        Executor().run, [SwitchReliabilityAnalysis()], paper_context
    )["switch_reliability"]

    header = ["Year"] + [t.value for t in DeviceType]
    rows = []
    for year in sr.years:
        cells = []
        for t in DeviceType:
            value = sr.mtbi_h.get(year, {}).get(t)
            cells.append(f"{value:.3g}" if value and math.isfinite(value)
                         else "-")
        rows.append([year] + cells)
    emit("fig12_mtbi", format_table(
        header, rows,
        title="Figure 12: mean time between incidents (device-hours)",
    ))

    assert sr.mtbi(2017, DeviceType.CORE) == pytest.approx(39_495, rel=0.02)
    assert sr.mtbi(2017, DeviceType.RSW) == pytest.approx(9_958_828, rel=0.02)
    assert sr.design_mtbi(2017, NetworkDesign.FABRIC) == pytest.approx(
        2_636_818, rel=0.03
    )
    assert sr.design_mtbi(2017, NetworkDesign.CLUSTER) == pytest.approx(
        822_518, rel=0.03
    )
    assert sr.fabric_advantage(2017) == pytest.approx(3.2, abs=0.15)
    assert sr.mtbi(2016, DeviceType.CSA) / sr.mtbi(2014, DeviceType.CSA) > 10
