"""Table 2 — root causes of intra DC incidents, 2011-2018 (section 5.1).

Paper: maintenance 17%, hardware 13%, configuration 13%, bug 12%,
accidents 10%, capacity 5%, undetermined 29%.
"""

import pytest

from repro.incidents.sev import RootCause
from repro.runtime import Executor
from repro.runtime.analyses import RootCausesAnalysis
from repro.viz.tables import format_table

PAPER = {
    RootCause.MAINTENANCE: 0.17,
    RootCause.HARDWARE: 0.13,
    RootCause.CONFIGURATION: 0.13,
    RootCause.BUG: 0.12,
    RootCause.ACCIDENTS: 0.10,
    RootCause.CAPACITY: 0.05,
    RootCause.UNDETERMINED: 0.29,
}


def test_table2_root_causes(benchmark, emit, paper_context):
    breakdown = benchmark(
        Executor().run, [RootCausesAnalysis()], paper_context
    )["root_causes"]
    dist = breakdown.distribution()

    rows = [
        [cause.value, f"{dist[cause]:.1%}", f"{PAPER[cause]:.0%}"]
        for cause in PAPER
    ]
    emit("table2_root_causes", format_table(
        ["Category", "Measured", "Paper"],
        rows,
        title="Table 2: root cause distribution, 2011-2018",
    ))

    for cause, share in PAPER.items():
        assert dist[cause] == pytest.approx(share, abs=0.02)
    assert breakdown.human_to_hardware_ratio == pytest.approx(2.0, abs=0.3)
