"""Figure 5 — SEVs per device per year by severity level (section 5.3).

Shape: SEV3 dominates, grows until an inflection in 2015 (fabric
deployment), then declines; per-device rates are in the 1e-3 band.
"""

import pytest

from repro.incidents.sev import Severity
from repro.runtime import Executor
from repro.runtime.analyses import SeverityOverTimeAnalysis
from repro.viz.tables import format_table


def test_fig5_severity_over_time(benchmark, emit, paper_context):
    series = benchmark(
        Executor().run, [SeverityOverTimeAnalysis()], paper_context
    )["severity_over_time"]

    rows = [
        [year] + [f"{series.rate(year, s):.2e}" for s in sorted(Severity)]
        for year in series.years
    ]
    emit("fig5_severity_over_time", format_table(
        ["Year", "SEV1/device", "SEV2/device", "SEV3/device"],
        rows,
        title="Figure 5: network SEVs per device over time",
    ))

    assert series.inflection_year(Severity.SEV3) == 2015
    for year in series.years:
        assert series.rate(year, Severity.SEV3) > series.rate(
            year, Severity.SEV2
        ) > series.rate(year, Severity.SEV1)
    # Pre-2015 SEV3 growth is steep (near-exponential in the paper).
    assert series.rate(2014, Severity.SEV3) > series.rate(2011, Severity.SEV3)
    # Post-deployment turnaround.
    assert series.rate(2017, Severity.SEV3) < series.rate(2015, Severity.SEV3)
    assert series.rate(2015, Severity.SEV3) == pytest.approx(2.4e-3, rel=0.3)
