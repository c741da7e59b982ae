"""Plain-text dashboard over streaming aggregates.

Renders the live counterparts of the paper's headline artifacts from a
:class:`~repro.stream.aggregates.StreamAggregates` snapshot: yearly
totals (Figure 8), the root-cause mix (Table 2), the latest year's
severity mix (Figure 4), and the latest year's per-type counts, rates,
MTBI, and streamed p75IRT (Figures 3, 7, 12, 13).

Every share, rate and MTBI comes from the runtime analysis that
answers it in ``report intra``, finalized over the streamed state
(:func:`repro.stream.finalize_analyses`); the dashboard itself reads
only raw tallies — events, yearly totals, per-type counts — and the
resolution-time sketches' p75.
"""

from __future__ import annotations

from typing import List, Optional

from repro.fleet.population import FleetModel
from repro.incidents.sev import RootCause, Severity
from repro.topology.devices import DeviceType
from repro.viz.tables import format_table


def stream_dashboard(aggregates, fleet: Optional[FleetModel] = None) -> str:
    """Render a streaming aggregate snapshot as stacked text tables.

    ``fleet`` enables the population-normalized columns (incident rate
    and MTBI); without one, the dashboard shows pure stream-derived
    numbers only.
    """
    from repro.runtime import RunContext
    from repro.runtime.analyses import (
        IncidentRatesAnalysis,
        RootCausesAnalysis,
        SeverityByDeviceAnalysis,
        SwitchReliabilityAnalysis,
    )
    from repro.stream import finalize_analyses

    if aggregates.events == 0:
        return "stream: no events ingested yet"
    totals = aggregates.year_type.yearly_totals
    years = sorted(totals)
    latest = years[-1]
    analyses = [RootCausesAnalysis(), SeverityByDeviceAnalysis()]
    if fleet is not None:
        analyses += [IncidentRatesAnalysis(), SwitchReliabilityAnalysis()]
    results = finalize_analyses(
        aggregates, analyses, RunContext(fleet=fleet, year=latest)
    )
    sections: List[str] = [
        f"stream: {aggregates.events} events ingested, "
        f"years {years[0]}-{latest}"
    ]

    sections.append(format_table(
        ["Year", "SEVs"],
        [[year, totals[year]] for year in years],
        title="Incidents per year",
    ))

    causes = results["root_causes"]
    sections.append(format_table(
        ["Root cause", "Share"],
        [[cause.value, f"{causes.fraction(cause):.1%}"] for cause in RootCause],
        title="Root causes (Table 2, streamed)",
    ))

    severity = results["severity_by_device"]
    sections.append(format_table(
        ["Severity", "Share"],
        [
            [level.label, f"{severity.level_share(level):.1%}"]
            for level in sorted(Severity)
        ],
        title=f"Severity mix, {latest} (Figure 4, streamed)",
    ))

    headers = ["Device", "SEVs", "p75 IRT (h)"]
    if fleet is not None:
        headers += ["Rate", "MTBI (h)"]
    counts = aggregates.year_type.counts.get(latest, {})
    sketches = aggregates.durations.by_year_type.get(latest, {})
    rows = []
    for device_type in DeviceType:
        count = counts.get(device_type, 0)
        if count == 0:
            continue
        row: List[object] = [
            device_type.value,
            count,
            f"{sketches[device_type].p75():.3g}",
        ]
        if fleet is not None:
            if fleet.count(latest, device_type):
                rate = results["incident_rates"].rate(latest, device_type)
                mtbi = results["switch_reliability"].mtbi(latest, device_type)
                row += [f"{rate:.3g}", f"{mtbi:.3g}"]
            else:
                row += ["-", "-"]
        rows.append(row)
    sections.append(format_table(
        headers, rows,
        title=f"Per-type reliability, {latest} (streamed)",
    ))
    return "\n\n".join(sections)
