"""Figure 9 — incidents by network design vs. 2017 baseline (section 5.5).

Shape: cluster incidents inflect at the 2015 fabric deployment; fabric
incidents rise from zero; 2017 fabric is ~half of cluster.
"""

import pytest

from repro.runtime import Executor
from repro.runtime.analyses import DesignComparisonAnalysis
from repro.topology.devices import NetworkDesign
from repro.viz.tables import format_table


def test_fig9_design_fraction(benchmark, emit, paper_context):
    comparison = benchmark(
        Executor().run, [DesignComparisonAnalysis()], paper_context
    )["design_comparison"]

    rows = [
        [year,
         f"{comparison.normalized(year, NetworkDesign.CLUSTER):.3f}",
         f"{comparison.normalized(year, NetworkDesign.FABRIC):.3f}"]
        for year in comparison.years
    ]
    emit("fig9_design_fraction", format_table(
        ["Year", "Cluster", "Fabric"],
        rows,
        title=("Figure 9: incidents per design, normalized to the 2017 "
               "design-incident total"),
    ))

    assert comparison.cluster_inflection_year() == 2015
    assert comparison.fabric_to_cluster_ratio(2017) == pytest.approx(
        0.5, abs=0.06
    )
    for year in (2011, 2012, 2013, 2014):
        assert comparison.count(year, NetworkDesign.FABRIC) == 0
    fabric_series = [
        comparison.count(y, NetworkDesign.FABRIC) for y in (2015, 2016, 2017)
    ]
    assert fabric_series == sorted(fabric_series)
