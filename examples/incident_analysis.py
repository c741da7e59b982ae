#!/usr/bin/env python
"""The full intra data center study (sections 5.1-5.6), end to end.

Regenerates every intra data center table and figure from a synthetic
corpus and renders them as text — a terminal version of the paper's
evaluation.

    python examples/incident_analysis.py
"""

from repro import (
    DeviceType,
    Executor,
    IntraSimulator,
    NetworkDesign,
    RunContext,
    irt_vs_fleet_size,
    paper_employees,
    paper_fleet,
    paper_scenario,
    population_breakdown,
    remediation_table,
    run_intra_report,
    switches_vs_employees,
)
from repro.incidents import RootCause, Severity
from repro.runtime.analyses import RootCausesByDeviceAnalysis
from repro.viz import bar_chart, format_table, series_chart

TYPES = list(DeviceType)


def section(title: str) -> None:
    print(f"\n{'=' * 72}\n{title}\n{'=' * 72}")


def main() -> None:
    scenario = paper_scenario()
    store = IntraSimulator(scenario).run()
    fleet = paper_fleet()
    employees = paper_employees()
    context = RunContext(store=store, fleet=fleet)
    # Every artifact the report composes, from one executor run.
    report = run_intra_report(context)

    section("Table 1: automated remediation (April 2018 month)")
    month = IntraSimulator(scenario).simulate_remediation_month()
    t1 = remediation_table(month.engine)
    print(format_table(
        ["Device", "Repair ratio", "Avg priority", "Avg wait (h)",
         "Avg repair (s)"],
        [[r.device_type.value.upper(), f"{r.repair_ratio:.1%}",
          f"{r.avg_priority:.2f}", f"{r.avg_wait_h:.2f}",
          f"{r.avg_repair_s:.2f}"] for r in t1.ordered()],
    ))

    section("5.1 Root causes (Table 2, Figure 2)")
    t2 = report.root_causes
    print(bar_chart(
        {c.value: t2.fraction(c) for c in RootCause}, title="Table 2"
    ))
    print(f"\nhuman/hardware error ratio: {t2.human_to_hardware_ratio:.2f}")
    fig2 = Executor().run(
        [RootCausesByDeviceAnalysis()], context
    )["root_causes_by_device"]
    print("\nFigure 2 (fraction of each cause's incidents by type):")
    print(format_table(
        ["cause"] + [t.value for t in TYPES],
        [[c.value] + [f"{fig2.get(c, {}).get(t, 0):.2f}" for t in TYPES]
         for c in RootCause],
    ))

    section("5.2 Incident rate (Figure 3)")
    fig3 = report.rates
    print(format_table(
        ["year"] + [t.value for t in TYPES],
        [[y] + [f"{fig3.rate(y, t):.2g}" if fig3.rate(y, t) else "-"
                for t in TYPES] for y in fig3.years],
    ))
    print(f"\n2013 CSA incident rate: {fig3.rate(2013, DeviceType.CSA):.2f} "
          "(exceeds 1.0: more incidents than devices)")

    section("5.3 Incident severity (Figures 4-6)")
    fig4 = report.severity
    for severity in sorted(Severity):
        share = fig4.level_share(severity)
        mix = {t.value: fig4.device_fraction(severity, t) for t in TYPES}
        print(f"\n{severity.label} (N={share:.0%} of 2017 SEVs)")
        print(bar_chart(mix, width=30))
    fig5 = report.severity_over_time
    print(f"\nSEV3-per-device inflection year: {fig5.inflection_year()}")
    fig6 = switches_vs_employees(fleet, employees)
    print("\nFigure 6 (switches vs. employees):")
    print(series_chart(fig6, height=8, width=40))

    section("5.4 Incident distribution (Figures 7-8)")
    fig7 = report.distribution
    print(format_table(
        ["year"] + [t.value for t in TYPES] + ["total"],
        [[y] + [f"{fig7.fraction_of_year(y, t):.2f}" for t in TYPES]
         + [fig7.year_total(y)] for y in fig7.years],
    ))

    section("5.5 Incidents by network design (Figures 9-11)")
    fig9 = report.designs
    print(format_table(
        ["year", "cluster", "fabric", "cluster/device", "fabric/device"],
        [[y, fig9.count(y, NetworkDesign.CLUSTER),
          fig9.count(y, NetworkDesign.FABRIC),
          f"{fig9.per_device(y, NetworkDesign.CLUSTER):.4f}",
          f"{fig9.per_device(y, NetworkDesign.FABRIC):.4f}"]
         for y in fig9.years],
    ))
    fig11 = population_breakdown(fleet)
    print("\nFigure 11 (2017 population mix):")
    print(bar_chart(
        {t.value: fig11[2017].get(t, 0.0) for t in TYPES}, width=40
    ))

    section("5.6 Switch reliability (Figures 12-14)")
    sr = report.switches
    print(format_table(
        ["year"] + [t.value for t in TYPES],
        [[y] + [
            f"{sr.mtbi_h[y][t]:.2g}" if t in sr.mtbi_h.get(y, {}) else "-"
            for t in TYPES
        ] for y in sr.years],
        title="MTBI (device-hours)",
    ))
    print(f"\nfabric MTBI advantage in 2017: "
          f"{sr.fabric_advantage(2017):.1f}x")
    fig14 = irt_vs_fleet_size(store, fleet)
    print("\nFigure 14 (p75IRT vs. normalized fleet):")
    print(series_chart(fig14, height=8, width=40))


if __name__ == "__main__":
    main()
