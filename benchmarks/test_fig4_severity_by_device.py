"""Figure 4 — SEV level distribution across devices, 2017 (section 5.3).

Paper: N = 82% SEV3, 13% SEV2, 5% SEV1; Cores ~81/15/4, RSWs ~85/10/5;
fabric devices are small slices (ESW 3%, SSW 2%, FSW 8%).
"""

import pytest

from repro.incidents.sev import Severity
from repro.runtime import Executor
from repro.runtime.analyses import SeverityByDeviceAnalysis
from repro.topology.devices import DeviceType
from repro.viz.tables import format_table


def test_fig4_severity_by_device(benchmark, emit, paper_context):
    fig4 = benchmark(
        Executor().run, [SeverityByDeviceAnalysis()], paper_context
    )["severity_by_device"]
    assert fig4.year == 2017  # the corpus' newest year

    header = ["Level", "N"] + [t.value for t in DeviceType]
    rows = []
    for severity in sorted(Severity):
        rows.append(
            [severity.label, f"{fig4.level_share(severity):.0%}"]
            + [f"{fig4.device_fraction(severity, t):.2f}"
               for t in DeviceType]
        )
    emit("fig4_severity_by_device", format_table(
        header, rows,
        title="Figure 4: SEV level mix across device types, 2017",
    ))

    assert fig4.level_share(Severity.SEV3) == pytest.approx(0.82, abs=0.02)
    assert fig4.level_share(Severity.SEV2) == pytest.approx(0.13, abs=0.02)
    assert fig4.level_share(Severity.SEV1) == pytest.approx(0.05, abs=0.02)
    core = fig4.device_mix(DeviceType.CORE)
    assert core[Severity.SEV3] == pytest.approx(0.81, abs=0.03)
    rsw = fig4.device_mix(DeviceType.RSW)
    assert rsw[Severity.SEV3] == pytest.approx(0.85, abs=0.03)
    cluster_sev1, fabric_sev1 = fig4.design_totals(Severity.SEV1)
    assert fabric_sev1 < cluster_sev1
