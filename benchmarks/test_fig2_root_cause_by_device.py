"""Figure 2 — root cause distribution by device type (section 5.1).

Shape: major categories (maintenance, hardware, configuration, bug,
undetermined) are spread across all seven device types; small
categories may miss small-population types.
"""

from repro.incidents.sev import RootCause
from repro.runtime import Executor
from repro.runtime.analyses import RootCausesByDeviceAnalysis
from repro.topology.devices import DeviceType
from repro.viz.tables import format_table


def test_fig2_root_cause_by_device(benchmark, emit, paper_context):
    fractions = benchmark(
        Executor().run, [RootCausesByDeviceAnalysis()], paper_context
    )["root_causes_by_device"]

    header = ["Root cause"] + [t.value for t in DeviceType]
    rows = []
    for cause in RootCause:
        per_type = fractions.get(cause, {})
        rows.append([cause.value] + [
            f"{per_type.get(t, 0.0):.2f}" for t in DeviceType
        ])
    emit("fig2_root_cause_by_device", format_table(
        header, rows,
        title="Figure 2: root cause fraction by device type",
    ))

    major = (RootCause.MAINTENANCE, RootCause.HARDWARE,
             RootCause.CONFIGURATION, RootCause.UNDETERMINED)
    for cause in major:
        per_type = fractions[cause]
        # Even representation: every type appears in major categories.
        assert len(per_type) == len(DeviceType)
        assert abs(sum(per_type.values()) - 1.0) < 1e-9
        # Core and RSW carry the biggest shares (they have the most
        # incidents overall).
        assert per_type[DeviceType.CORE] > per_type[DeviceType.SSW]
