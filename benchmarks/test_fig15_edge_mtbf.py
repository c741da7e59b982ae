"""Figure 15 — edge MTBF percentile curve and model (section 6.1).

Paper: 50% of edges fail less than once every 1710 h, 90% less than
once every 3521 h; model MTBF_edge(p) = 462.88 e^{2.3408 p}, R² = 0.94.
"""

import pytest

from repro.runtime import Executor
from repro.runtime.analyses import BackboneReliabilityAnalysis
from repro.viz.tables import format_table


def test_fig15_edge_mtbf(benchmark, emit, backbone_context):
    rel = benchmark(
        Executor().run, [BackboneReliabilityAnalysis()], backbone_context
    )["backbone_reliability"]
    curve = rel.edge_mtbf
    model = rel.edge_mtbf_model()

    anchors = [0.1, 0.25, 0.5, 0.75, 0.9, 1.0]
    rows = [
        [f"{p:.0%}", f"{curve.value_at(p):.0f}", f"{model.predict(p):.0f}"]
        for p in anchors
    ]
    emit("fig15_edge_mtbf", format_table(
        ["Percentile", "Measured MTBF (h)", "Model (h)"],
        rows,
        title=(f"Figure 15: edge MTBF; model {model} "
               "(paper: 462.88*exp(2.3408p), R^2=0.94)"),
    ))

    assert curve.p50 == pytest.approx(1710, rel=0.15)
    assert curve.p90 == pytest.approx(3521, rel=0.25)
    assert model.a == pytest.approx(462.88, rel=0.25)
    assert model.b == pytest.approx(2.3408, rel=0.15)
    assert model.r2 > 0.9
    # "Typically fail on the order of weeks to months."
    assert 24 * 7 < curve.p50 < 24 * 120
