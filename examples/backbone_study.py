#!/usr/bin/env python
"""The full inter data center study (section 6), end to end.

Walks the entire backbone pipeline: vendor e-mails -> parsed tickets ->
one domain-generic executor run answering every section 6 artifact
(link/edge outage derivation, MTBF/MTTR percentile curves, fitted
exponential models, vendor scorecards, repair durations) ->
conditional-risk capacity planning -> rerouting around an observed
fiber cut.

    python examples/backbone_study.py
"""

from repro import (
    BackboneSimulator,
    TrafficEngineer,
    capacity_report,
    paper_backbone_scenario,
)
from repro.backbone.emails import format_start_email, parse_vendor_email
from repro.runtime import RunContext, run_backbone_report
from repro.viz import (
    duration_table,
    format_table,
    scorecard_table,
    series_chart,
)


def section(title: str) -> None:
    print(f"\n{'=' * 72}\n{title}\n{'=' * 72}")


def main() -> None:
    scenario = paper_backbone_scenario()
    corpus = BackboneSimulator(scenario).run()

    section("4.3.2 The vendor e-mail pipeline")
    sample = format_start_email(
        "fbl-0001", "vendor003", 1234.5, location="Europe",
        estimated_duration_h=8.0, ticket_ref="wo-000042",
    )
    print("A structured vendor notification:\n")
    print(sample)
    parsed = parse_vendor_email(sample)
    print(f"\nparsed -> link={parsed.link_id} vendor={parsed.vendor} "
          f"ref={parsed.ticket_ref}")
    print(f"\nCorpus: {len(corpus.tickets)} tickets over "
          f"{corpus.window_h:.0f} hours "
          f"({len(corpus.topology.edges)} edges, "
          f"{len(corpus.topology.links)} links, "
          f"{len(corpus.vendors)} vendors)")

    # One executor run over the ticket corpus answers every section 6
    # artifact; the plan folds the tickets as column batches, once.
    context = RunContext(
        tickets=corpus.tickets, topology=corpus.topology,
        window_h=corpus.window_h, corpus_seed=scenario.seed,
    )
    report = run_backbone_report(context)
    rel = report.reliability

    section("6.1 Edge reliability (Figures 15-16)")
    print("Edge MTBF percentile curve:")
    print(series_chart(
        [(p, v) for p, v in zip(rel.edge_mtbf.fractions,
                                rel.edge_mtbf.values)],
        height=8, width=50, log_y=True,
    ))
    print(f"model: {rel.edge_mtbf_model()} "
          "(paper: 462.88*exp(2.3408p), R^2=0.94)")
    print(f"\nEdge MTTR p50={rel.edge_mttr.p50:.1f} h, "
          f"p90={rel.edge_mttr.p90:.1f} h, max={rel.edge_mttr.max:.0f} h "
          "(the remote-island outlier)")
    print(f"model: {rel.edge_mttr_model()} "
          "(paper: 1.513*exp(4.256p), R^2=0.87)")

    section("6.2 Vendor reliability (Figures 17-18)")
    flaky = corpus.vendors.least_reliable()
    stellar = corpus.vendors.most_reliable()
    print(f"vendor MTBF spans {rel.vendor_mtbf.min:.0f} .. "
          f"{rel.vendor_mtbf.max:.0f} h "
          f"(directory extremes: {flaky.name} vs {stellar.name})")
    print(f"vendor MTTR model: {rel.vendor_mttr_model()} "
          "(paper: 1.1345*exp(4.7709p), R^2=0.98)")
    print()
    print(scorecard_table(report.vendors))
    print()
    print(duration_table(report.durations))

    section("6.3 Reliability by continent (Table 4)")
    rows = report.continents
    print(format_table(
        ["Continent", "Edges", "Share", "MTBF (h)", "MTTR (h)"],
        [[r.continent.value, r.edge_count, f"{r.share:.0%}",
          f"{r.mtbf_h:.0f}" if r.mtbf_h else "-",
          f"{r.mttr_h:.1f}" if r.mttr_h else "-"] for r in rows],
    ))

    section("6.1 Conditional-risk capacity planning (99.99th percentile)")
    report = capacity_report(corpus.topology, rel)
    print(f"edges meeting the target: {len(report.compliant_edges)} / "
          f"{len(report.plans)}")
    example = sorted(report.plans)[0]
    plan = report.plans[example]
    print(f"{example}: {plan.recommended_links} links -> "
          f"severing probability {plan.unavailability:.2e}")

    section("3.2 Rerouting around a fiber cut")
    engineer = TrafficEngineer(corpus.topology)
    victim = sorted(corpus.topology.edges)[5]
    cut = [l.link_id for l in corpus.topology.links_of_edge(victim)][:2]
    neighbours = sorted(
        {l.a for l in corpus.topology.links_of_edge(victim)}
        | {l.b for l in corpus.topology.links_of_edge(victim)}
    )
    src, dst = [n for n in neighbours if n != victim][:2]
    result = engineer.reroute(src, dst, cut)
    print(f"cut {len(cut)} links at {victim}; {src} -> {dst}: "
          f"connected={result.connected}, "
          f"hops {result.baseline_hops} -> {result.rerouted_hops} "
          f"(latency stretch {result.latency_stretch:.2f}), "
          f"residual capacity {result.capacity_gbps:.0f} Gb/s")
    loss = engineer.capacity_loss(src, dst, cut)
    print(f"capacity lost: {loss:.0%} — the paper's 'more common result "
          "of fiber cuts' (section 3.2)")


if __name__ == "__main__":
    main()
