#!/usr/bin/env python
"""Quickstart: generate both corpora and print the headline results.

Runs the full pipeline in under a minute: the seven-year intra data
center SEV corpus, the eighteen-month backbone ticket corpus, and the
headline numbers of the paper from each.

    python examples/quickstart.py
"""

from repro import (
    DeviceType,
    NetworkDesign,
    build_backbone_context,
    build_intra_context,
    run_backbone_report,
    run_intra_report,
)
from repro.incidents import Severity


def main() -> None:
    # ----- intra data center (sections 4-5) ---------------------------
    print("Generating the seven-year intra data center SEV corpus...")
    context = build_intra_context()
    report = run_intra_report(context)
    print(f"  {len(context.store)} SEV reports across "
          f"{len(report.distribution.years)} years\n")

    table2 = report.root_causes
    print("Root causes (Table 2):")
    for cause, fraction in sorted(
        table2.distribution().items(), key=lambda kv: -kv[1]
    ):
        print(f"  {cause.value:<14} {fraction:.1%}")

    fig4 = report.severity
    shares = ", ".join(
        f"{s.label} {fig4.level_share(s):.0%}" for s in sorted(Severity)
    )
    print(f"\n2017 severity mix (Figure 4): {shares}")

    sr = report.switches
    print(f"2017 MTBI: Cores {sr.mtbi(2017, DeviceType.CORE):,.0f} h, "
          f"RSWs {sr.mtbi(2017, DeviceType.RSW):,.0f} h")
    print(f"Fabric switches fail {sr.fabric_advantage(2017):.1f}x less "
          "often than cluster switches")

    comparison = report.designs
    print(f"Fabric incidents are "
          f"{comparison.fabric_to_cluster_ratio(2017):.0%} of cluster "
          f"incidents in 2017; cluster incidents peaked in "
          f"{comparison.cluster_inflection_year()}")
    print(f"Total SEVs grew {report.growth:.1f}x from 2011 to 2017")

    # ----- inter data center (section 6) -------------------------------
    print("\nGenerating the eighteen-month backbone ticket corpus...")
    context = build_backbone_context()
    rel = run_backbone_report(context).reliability
    print(f"  {len(context.tickets)} vendor repair tickets over "
          f"{len(context.topology.edges)} edges / "
          f"{len(context.topology.links)} fiber links\n")

    print(f"Edge MTBF:  p50 {rel.edge_mtbf.p50:,.0f} h, "
          f"p90 {rel.edge_mtbf.p90:,.0f} h")
    print(f"Edge MTTR:  p50 {rel.edge_mttr.p50:.1f} h, "
          f"p90 {rel.edge_mttr.p90:.1f} h")
    print(f"Edge MTBF model:   {rel.edge_mtbf_model()}")
    print(f"Edge MTTR model:   {rel.edge_mttr_model()}")
    print(f"Vendor MTTR model: {rel.vendor_mttr_model()}")

    cluster_types = [t.value for t in DeviceType
                     if t.design is NetworkDesign.CLUSTER]
    print(f"\nDone.  (Cluster-only device types: {cluster_types}; "
          "see examples/incident_analysis.py for the full study.)")


if __name__ == "__main__":
    main()
