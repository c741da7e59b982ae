"""Figure 10 — incidents per device by network design (section 5.5).

Shape: cluster incidents scale super-linearly with population until
~2014; since its 2015 introduction, fabric has consistently had lower
incidents per device.
"""

from repro.runtime import Executor
from repro.runtime.analyses import DesignComparisonAnalysis
from repro.topology.devices import NetworkDesign
from repro.viz.tables import format_table


def test_fig10_design_rate(benchmark, emit, paper_context):
    comparison = benchmark(
        Executor().run, [DesignComparisonAnalysis()], paper_context
    )["design_comparison"]

    rows = [
        [year,
         f"{comparison.per_device(year, NetworkDesign.CLUSTER):.4f}",
         f"{comparison.per_device(year, NetworkDesign.FABRIC):.4f}"]
        for year in comparison.years
    ]
    emit("fig10_design_rate", format_table(
        ["Year", "Cluster/device", "Fabric/device"],
        rows,
        title="Figure 10: incidents per device by network design",
    ))

    cluster = {
        y: comparison.per_device(y, NetworkDesign.CLUSTER)
        for y in comparison.years
    }
    # Super-linear scaling until ~2014: the per-device rate rises.
    assert cluster[2013] > cluster[2011]
    peak = max(cluster, key=cluster.get)
    assert peak in (2013, 2014)
    # Fabric below cluster every year since its introduction.
    for year in (2015, 2016, 2017):
        assert (comparison.per_device(year, NetworkDesign.FABRIC)
                < comparison.per_device(year, NetworkDesign.CLUSTER))
