"""Command-line interface.

Exposes the pipeline without writing Python::

    python -m repro report intra            # the intra DC study
    python -m repro report backbone         # the backbone study
    python -m repro report backbone --jobs auto  # pooled column folds
    python -m repro export sevs out.csv     # generate + export SEVs
    python -m repro export tickets out.json # generate + export tickets
    python -m repro analyze sevs.csv        # analyze an imported corpus
    python -m repro analyze tickets.csv     # ticket exports work too
    python -m repro stream --jobs 4         # streaming runtime, sharded
    python -m repro stream --jobs auto      # pick workers from the corpus
    python -m repro stream --replay out.csv # incremental corpus replay
    python -m repro stream --dataset tickets  # backbone ticket feed
    python -m repro bench --quick           # benchmark suite, JSON records
    python -m repro chaos --seed 7          # seeded fault-injection drills
    python -m repro chaos --quick --out r.json  # CI smoke + JSON report
    python -m repro serve --port 8351       # reports as a long-lived HTTP
                                            # service with a job queue
    python -m repro report intra --digest   # print the canonical digest
                                            # (matches the serve endpoints)
    python -m repro store init st --seed 1  # tiered, partitioned store:
                                            # (year, region) shards behind
                                            # a checksummed manifest
    python -m repro store compact st        # gzip-compress old years
    python -m repro store status st         # manifest summary as JSON
    python -m repro report intra --store-dir st  # report off the store
                                            # (digests match generation)
    python -m repro scenario list           # shipped scenario presets
    python -m repro scenario show paper     # canonical JSON + digest
    python -m repro scenario validate s.json  # strict spec validation
    python -m repro grid expand --axes fabric_year=2013..2017
                                            # lattice cells + digests
    python -m repro grid run --axes fabric_year=2015,2016 \
        --axes hazard.CORE=1.0,1.5 --cache c --out grid.json
                                            # cached what-if sweep with
                                            # comparative tables
    python -m repro grid diff a.json b.json # cell-by-cell comparison
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import (
    BackboneSimulator,
    DeviceType,
    IntraSimulator,
    paper_backbone_scenario,
    paper_fleet,
    paper_scenario,
)
from repro.incidents import RootCause, Severity
from repro.viz import format_table

def _parse_jobs(value: str):
    """``--jobs`` accepts a positive worker count or ``auto``."""
    if value == "auto":
        return "auto"
    try:
        jobs = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"jobs must be a positive integer or 'auto', got {value!r}"
        )
    if jobs < 1:
        raise argparse.ArgumentTypeError("jobs must be at least 1")
    return jobs


def _parse_bytes(value: str):
    """``--cache-prune`` accepts a byte count, with k/m/g suffixes."""
    text = value.strip().lower()
    multiplier = 1
    for suffix, scale in (("k", 1024), ("m", 1024 ** 2), ("g", 1024 ** 3)):
        if text.endswith(suffix):
            text, multiplier = text[: -len(suffix)], scale
            break
    try:
        count = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a byte count (optionally suffixed k/m/g), "
            f"got {value!r}"
        )
    if count < 0:
        raise argparse.ArgumentTypeError("byte count must be non-negative")
    return count * multiplier


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'A Large Scale Study of Data Center "
                    "Network Reliability' (IMC 2018)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser("report", help="generate a corpus and print "
                                           "the study's key results")
    report.add_argument("study",
                        choices=["intra", "backbone", "survivability",
                                 "full"])
    report.add_argument("--seed", type=int, default=None)
    report.add_argument("--scale", type=float, default=1.0,
                        help="intra corpus scale factor")
    report.add_argument("--cache", metavar="DIR", default=None,
                        help="result cache directory: every study's "
                             "analyses of an unchanged corpus are "
                             "reused, not recomputed")
    report.add_argument("--jobs", type=_parse_jobs, default=1,
                        metavar="N",
                        help="worker processes for the column-batch "
                             "folds (a count, or 'auto' to size from the "
                             "host); SQL folds stay in this process and "
                             "results are bit-identical for any N")
    report.add_argument("--digest", action="store_true",
                        help="also print the canonical report_digest; "
                             "bit-identical to the digest the serve "
                             "endpoints embed for the same corpus+seed")
    report.add_argument("--store-dir", metavar="DIR", default=None,
                        help="report over a tiered partitioned store "
                             "(python -m repro store init) instead of "
                             "generating a corpus; the stored corpus "
                             "yields the same digests as a freshly "
                             "generated one of the same seed")
    report.add_argument("--cache-prune", metavar="BYTES",
                        type=_parse_bytes, default=None,
                        help="after the run, evict the oldest --cache "
                             "entries until the cache directory holds at "
                             "most BYTES (k/m/g suffixes accepted)")

    export = sub.add_parser("export", help="generate a corpus and export it")
    export.add_argument("dataset", choices=["sevs", "tickets"])
    export.add_argument("path", help="output file (.csv, .json, or .jsonl)")
    export.add_argument("--seed", type=int, default=None)
    export.add_argument("--scale", type=float, default=1.0,
                        help="intra corpus scale factor (sevs only), "
                             "matching report --scale")

    analyze = sub.add_parser("analyze", help="analyze an exported corpus "
                                             "(SEVs or tickets)")
    analyze.add_argument("path", help="SEV or ticket export (.csv, .json, "
                                      "or .jsonl — every format export "
                                      "emits; the dataset kind is sniffed "
                                      "from the content)")

    verify = sub.add_parser(
        "verify",
        help="regenerate both corpora and PASS/FAIL every paper anchor",
    )
    verify.add_argument("--seed", type=int, default=1)

    stream = sub.add_parser(
        "stream",
        help="online ingestion: generate (or replay) the corpus "
             "incrementally and print streaming aggregates",
    )
    stream.add_argument("--seed", type=int, default=1)
    stream.add_argument("--scale", type=float, default=1.0,
                        help="intra corpus scale factor")
    stream.add_argument("--jobs", type=_parse_jobs, default=1,
                        help="worker processes for sharded generation "
                             "(a count, or 'auto' to size from the corpus "
                             "and the host); any value produces identical "
                             "aggregates")
    stream.add_argument("--replay", metavar="PATH", default=None,
                        help="ingest an exported corpus (.csv/.json/"
                             ".jsonl, SEVs or tickets — sniffed from the "
                             "content) instead of generating")
    stream.add_argument("--checkpoint", metavar="PATH", default=None,
                        help="JSON snapshot: resumed from when present, "
                             "written when done (SEV streams only)")
    stream.add_argument("--dataset", choices=["sevs", "tickets"],
                        default="sevs",
                        help="which corpus to generate when not "
                             "replaying: intra SEVs or backbone repair "
                             "tickets")
    stream.add_argument("--store-dir", metavar="DIR", default=None,
                        help="replay a tiered partitioned store "
                             "(either domain) instead of generating "
                             "or reading an export")

    bench = sub.add_parser(
        "bench",
        help="run the performance benchmark suite and write "
             "repro.perf JSON records",
    )
    bench.add_argument("--quick", action="store_true",
                       help="small corpus, short worker sweep (the CI "
                            "smoke configuration)")
    bench.add_argument("--out", metavar="DIR", default="benchmarks/out",
                       help="directory for the JSON records "
                            "(default: benchmarks/out)")
    bench.add_argument("--seed", type=int, default=2)

    chaos = sub.add_parser(
        "chaos",
        help="run the seeded fault-injection drill suite "
             "(repro.faultline): inject component faults, verify "
             "every recovery path, and hold the planned folds "
             "against the per-row reference",
    )
    chaos.add_argument("--seed", type=int, default=7,
                       help="fault plan seed; the same seed replays "
                            "the same faults (default: 7)")
    chaos.add_argument("--sites", metavar="SITE[,SITE...]", default=None,
                       help="comma-separated subset of fault sites to "
                            "inject (default: all); see "
                            "repro.faultline.SITES")
    chaos.add_argument("--quick", action="store_true",
                       help="smaller corpora (the CI smoke "
                            "configuration)")
    chaos.add_argument("--out", metavar="PATH", default=None,
                       help="write the JSON fault report here")

    serve = sub.add_parser(
        "serve",
        help="serve both studies as a long-lived HTTP service "
             "(repro.serve): cached JSON report endpoints plus a "
             "checkpointed job queue",
    )
    serve.add_argument("--port", type=int, default=8351,
                       help="TCP port to bind (default: 8351; 0 picks "
                            "an ephemeral port)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--seed", type=int, default=1,
                       help="intra corpus seed (default: 1)")
    serve.add_argument("--backbone-seed", type=int, default=7,
                       help="backbone corpus seed (default: 7)")
    serve.add_argument("--scale", type=float, default=1.0,
                       help="intra corpus scale factor")
    serve.add_argument("--jobs", type=int, default=2, metavar="N",
                       help="job-queue worker threads (default: 2)")
    serve.add_argument("--corpus", metavar="PATH", default=None,
                       help="serve an exported SEV corpus (.jsonl/.json/"
                            ".csv) instead of generating one")
    serve.add_argument("--data-dir", metavar="DIR", default=None,
                       help="directory for the job checkpoint, artifact "
                            "registry, and result cache; restarting with "
                            "the same directory resumes pending jobs "
                            "(default: a temporary directory)")
    serve.add_argument("--no-warm", action="store_true",
                       help="skip pre-warming the report cache at startup")
    serve.add_argument("--store-dir", metavar="DIR", default=None,
                       help="serve an existing partitioned SEV store "
                            "(python -m repro store init) instead of "
                            "generating the intra corpus")

    store = sub.add_parser(
        "store",
        help="manage a tiered, partitioned corpus store "
             "(repro.storage): per-(year, region) shards behind a "
             "checksummed manifest, with a gzip cold tier",
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)

    s_init = store_sub.add_parser(
        "init", help="create a store and ingest a generated corpus"
    )
    s_init.add_argument("dir", help="store directory (created)")
    s_init.add_argument("--dataset", choices=["sevs", "tickets"],
                        default="sevs")
    s_init.add_argument("--seed", type=int, default=1)
    s_init.add_argument("--scale", type=float, default=1.0,
                        help="intra corpus scale factor (sevs only)")

    s_compact = store_sub.add_parser(
        "compact", help="demote old partitions to the gzip cold tier "
                        "(and optionally apply a retention floor)"
    )
    s_compact.add_argument("dir", help="store directory")
    s_compact.add_argument("--keep-hot-years", type=int, default=1,
                           metavar="N",
                           help="keep the newest N years hot "
                                "(default: 1)")
    s_compact.add_argument("--retain-from", type=int, default=None,
                           metavar="YEAR",
                           help="delete partitions older than YEAR "
                                "before compacting (destructive)")

    s_status = store_sub.add_parser(
        "status", help="print the manifest summary as JSON"
    )
    s_status.add_argument("dir", help="store directory")

    scenario = sub.add_parser(
        "scenario",
        help="inspect declarative scenario specs (repro.scenarios): "
             "shipped presets and spec files with canonical JSON and "
             "content digests",
    )
    scenario_sub = scenario.add_subparsers(dest="scenario_command",
                                           required=True)
    scenario_sub.add_parser("list", help="list the shipped presets")
    sc_show = scenario_sub.add_parser(
        "show", help="print a spec's canonical JSON and digest"
    )
    sc_show.add_argument("spec", help="preset name or spec file path "
                                      "(.json, or .yaml with PyYAML)")
    sc_validate = scenario_sub.add_parser(
        "validate", help="strictly validate spec files (unknown keys, "
                         "wrong types, torn files all fail loudly)"
    )
    sc_validate.add_argument("paths", nargs="+", metavar="PATH",
                             help="spec files to validate")

    grid = sub.add_parser(
        "grid",
        help="what-if grids (repro.scenarios): sweep scenario knobs "
             "over a parameter lattice, one cached analysis run per "
             "cell, with comparative tables and per-cell digests",
    )
    grid_sub = grid.add_subparsers(dest="grid_command", required=True)

    def _grid_base_args(p):
        p.add_argument("--preset", default="paper",
                       help="base preset name (default: paper); see "
                            "'scenario list'")
        p.add_argument("--spec", metavar="PATH", default=None,
                       help="base spec file instead of --preset")
        p.add_argument("--axes", action="append", required=True,
                       metavar="PATH=V1,V2|LO..HI",
                       help="one sweep axis: a dotted knob path and "
                            "its values, e.g. 'fabric_year=2013..2017' "
                            "or 'hazard.CORE=1.0,1.5,2.0' (repeatable)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the base spec's seed")
        p.add_argument("--scale", type=float, default=None,
                       help="override the base spec's corpus scale")

    g_run = grid_sub.add_parser(
        "run", help="run every lattice cell and print the comparative "
                    "tables; re-runs with --cache are cache hits"
    )
    _grid_base_args(g_run)
    g_run.add_argument("--jobs", type=_parse_jobs, default=1,
                       metavar="N",
                       help="worker processes for each cell's "
                            "column-batch folds (digests are "
                            "bit-identical for any N)")
    g_run.add_argument("--cache", metavar="DIR", default=None,
                       help="result cache directory: whole cells are "
                            "keyed on their spec digest, so repeated "
                            "and overlapping sweeps reuse cells")
    g_run.add_argument("--out", metavar="PATH", default=None,
                       help="write the JSON grid report here")
    g_run.add_argument("--table-axis", metavar="PATH", default=None,
                       help="also print a pivot of --table-metric "
                            "against this axis (default: the first "
                            "axis when more than one is swept)")
    g_run.add_argument("--table-metric", default="csa_rate_last",
                       help="metric for the pivot table "
                            "(default: csa_rate_last)")

    g_expand = grid_sub.add_parser(
        "expand", help="expand the lattice without running it: one "
                       "line per cell with its parameters and spec "
                       "digest"
    )
    _grid_base_args(g_expand)

    g_diff = grid_sub.add_parser(
        "diff", help="compare two JSON grid reports cell by cell "
                     "(cells align on their axis parameters)"
    )
    g_diff.add_argument("left", help="grid report JSON (from run --out)")
    g_diff.add_argument("right", help="grid report JSON to compare")

    return parser


def _open_partitioned(store_dir: str):
    """Open a partitioned store of either domain, from its manifest."""
    from repro.storage import (
        Manifest, PartitionedSEVStore, PartitionedTicketStore,
    )

    manifest = Manifest.load(store_dir)
    cls = (PartitionedSEVStore if manifest.domain == "sev"
           else PartitionedTicketStore)
    return cls.open(store_dir)


def _check_store(store_dir: str, study: str) -> None:
    """Exit with a message unless ``store_dir`` can feed ``study``."""
    if study == "survivability":
        raise SystemExit(
            "survivability trials are generated, not stored; "
            "'report survivability' does not take --store-dir"
        )
    if study == "full":
        raise SystemExit(
            "a partitioned store holds one domain; use "
            "--store-dir with 'report intra' or 'report backbone'"
        )
    from repro.storage import Manifest

    domain, label = {"intra": ("sev", "SEV"),
                     "backbone": ("ticket", "ticket")}[study]
    held = Manifest.load(store_dir).domain
    if held != domain:
        raise SystemExit(
            f"{store_dir} holds a {held!r} store; "
            f"'report {study}' needs a {label} store"
        )


def _cache(cache_dir: Optional[str]):
    """The ``--cache`` directory as a result cache (None without one)."""
    from repro.runtime import ResultCache

    return ResultCache(cache_dir) if cache_dir is not None else None


def _print_footer(report, cache, digest: bool) -> None:
    """The ``--digest`` line, then the ``[cache]`` line after a hit."""
    if digest:
        from repro.faultline.oracle import report_digest

        print(f"\nreport_digest: {report_digest(report)}")
    if cache is not None and cache.hits:
        _print_cache_stats(cache)


def _intra_report(seed: Optional[int], scale: float,
                  cache_dir: Optional[str] = None,
                  jobs: int = 1,
                  digest: bool = False,
                  store_dir: Optional[str] = None) -> None:
    """The intra study: one executor run feeds the tables and the digest.

    With ``store_dir`` the corpus is a stored one; the fleet model (and
    the cache fingerprint seed) come from the generator parameters the
    manifest recorded at ``store init`` time.
    """
    from repro.runtime import build_intra_context

    context = build_intra_context(seed, scale, store_dir=store_dir)
    cache = _cache(cache_dir)
    report = _print_intra_tables(context, jobs, cache)
    _print_footer(report, cache, digest)


def _print_intra_tables(context, jobs: int = 1, cache=None):
    """Table 2 and Figures 4, 7 and 12 of the context's intra study.

    One executor run answers the report and the corpus line
    (``corpus_size``), so a warm cached run prints both without
    building the corpus.  Returns the report.
    """
    from repro.runtime import (
        Executor, intra_report_analyses, intra_report_from,
    )
    from repro.runtime.analyses import CorpusSizeAnalysis

    results = Executor(jobs=jobs, cache=cache).run(
        intra_report_analyses() + [CorpusSizeAnalysis()], context
    )
    report = intra_report_from(results)
    rows, years = results["corpus_size"]
    last = report.last_year
    print(f"corpus: {rows} SEVs, years {years[0]}-{years[-1]}\n")

    t2 = report.root_causes
    print(format_table(
        ["Root cause", "Share"],
        [[c.value, f"{t2.fraction(c):.1%}"] for c in RootCause],
        title="Table 2: root causes",
    ))

    fig4 = report.severity
    print("\n" + format_table(
        ["Severity", "Share"],
        [[s.label, f"{fig4.level_share(s):.1%}"] for s in sorted(Severity)],
        title=f"Figure 4: severity mix, {last}",
    ))

    dist = report.distribution
    print("\n" + format_table(
        ["Device", f"Share of {last}"],
        [[t.value, f"{dist.fraction_of_year(last, t):.1%}"]
         for t in DeviceType],
        title="Figure 7: incidents by device type",
    ))

    if dist.year_total(years[0]):
        print(f"\ngrowth {years[0]}->{last}: {report.growth:.1f}x")

    try:
        sr = report.switches
        print("\n" + format_table(
            ["Device", f"MTBI {last} (device-hours)"],
            [[t.value, f"{sr.mtbi_h[last][t]:.3g}"]
             for t in DeviceType if t in sr.mtbi_h.get(last, {})],
            title="Figure 12: MTBI",
        ))
        print(f"\nfabric/cluster incidents in {last}: "
              f"{report.designs.fabric_to_cluster_ratio(last):.0%}")
    except (KeyError, ValueError):
        # An imported corpus may not align with the built-in fleet
        # model; the population-normalized figures need one.
        print("\n(no fleet model for this corpus; skipping "
              "population-normalized figures)")
    return report


def _survivability_report(seed: Optional[int],
                          cache_dir: Optional[str] = None,
                          jobs: int = 1,
                          digest: bool = False) -> None:
    """The survivability study: correlated failures over both designs.

    Same executor, same cache as ``report intra`` — the generated
    trial corpus is just another record source.
    """
    from repro.core import survivable_capacity
    from repro.survivability import (
        build_survivability_context, run_survivability_report,
    )

    context = build_survivability_context(1 if seed is None else seed)
    cache = _cache(cache_dir)
    report = run_survivability_report(context, jobs=jobs, cache=cache)
    print(f"corpus: {len(context.trials)} trial records, "
          f"seed {context.corpus_seed}, designs cluster+fabric\n")
    print(report.render())
    rows = survivable_capacity(report)
    floor = rows[0].floor if rows else 0.5
    print(f"\ncapacity floor {floor:.0%} survivable up to: " + "; ".join(
        f"{row.design} {row.max_survivable_pct}%" for row in rows
    ))
    if cache is not None and cache.hits:
        _print_cache_stats(cache)
    _print_footer(report, None, digest)


def _backbone_report(seed: Optional[int],
                     cache_dir: Optional[str] = None,
                     jobs: int = 1,
                     digest: bool = False,
                     store_dir: Optional[str] = None) -> None:
    """The backbone study through the domain-generic runtime.

    Same executor, same cache as ``report intra`` — the ticket corpus
    is just another record source.  One executor run answers the
    report and the corpus line (``ticket_corpus_size``), so a warm
    cached run prints both without building the corpus.  With
    ``store_dir`` the tickets stream from a partitioned store; the
    topology and window are rebuilt from the seed the manifest
    recorded.
    """
    from repro.runtime import (
        Executor, backbone_report_analyses, backbone_report_from,
        build_backbone_context,
    )
    from repro.runtime.analyses import TicketCorpusSizeAnalysis

    context = build_backbone_context(seed, store_dir=store_dir)
    cache = _cache(cache_dir)
    results = Executor(jobs=jobs, cache=cache).run(
        backbone_report_analyses() + [TicketCorpusSizeAnalysis()], context
    )
    report = backbone_report_from(results, context.window_h)
    tickets, edges, links = results["ticket_corpus_size"]
    print(f"corpus: {tickets} tickets, {edges} edges, {links} links\n")
    print(report.render())
    _print_footer(report, cache, digest)


def _print_cache_stats(cache) -> None:
    """The ``[cache]`` summary line, backed by ``ResultCache.stats()``."""
    stats = cache.stats()
    print(f"\n[cache] {stats['hits']} analyses reused, "
          f"{stats['misses']} computed "
          f"(hit rate {stats['hit_rate']:.0%}, "
          f"{stats['entries']} entries)")


def _check_data_file(path: str) -> None:
    """Exit with one line unless ``path`` has an interchange suffix."""
    from repro.io import data_format

    try:
        data_format(path)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None


def _export(dataset: str, path: str, seed: Optional[int],
            scale: float = 1.0) -> None:
    from repro.io import write_records

    _check_data_file(path)
    if dataset == "sevs":
        from repro.incidents.memory import ReportSink

        scenario = (paper_scenario(seed=seed, scale=scale)
                    if seed is not None else paper_scenario(scale=scale))
        # Generated into memory and written in a SEV store's scan
        # order, (opened_at_h, sev_id).
        records = sorted(
            IntraSimulator(scenario).run(ReportSink()),
            key=lambda r: (r.opened_at_h, r.sev_id),
        )
    else:
        scenario = (paper_backbone_scenario(seed=seed) if seed is not None
                    else paper_backbone_scenario())
        records = BackboneSimulator(scenario).run().tickets.completed()
    count = write_records(records, path, dataset)
    print(f"wrote {count} {dataset} to {path}")


def _store(args) -> int:
    """The ``store init|compact|status`` operator surface."""
    import json

    if args.store_command == "init":
        if args.dataset == "sevs":
            from repro.incidents.memory import ReportSink
            from repro.storage import PartitionedSEVStore

            # Generated into memory, each row is written once: into
            # its partition shard.
            reports = IntraSimulator(paper_scenario(
                seed=args.seed, scale=args.scale)).run(ReportSink())
            store = PartitionedSEVStore.init(args.dir, meta={
                "dataset": "sevs", "seed": args.seed, "scale": args.scale,
            })
            count = store.ingest(reports)
        else:
            from repro.storage import PartitionedTicketStore

            scenario = paper_backbone_scenario(seed=args.seed)
            corpus = BackboneSimulator(scenario).run()
            store = PartitionedTicketStore.init(args.dir, meta={
                "dataset": "tickets", "seed": args.seed,
                "window_h": corpus.window_h,
            })
            count = store.ingest(corpus.tickets.completed())
        print(f"initialized {store.domain} store at {args.dir}: "
              f"{count} rows in {len(store.partition_keys())} "
              f"partitions (years "
              f"{store.years()[0]}-{store.years()[-1]})")
    elif args.store_command == "compact":
        store = _open_partitioned(args.dir)
        if args.retain_from is not None:
            dropped = store.apply_retention(args.retain_from)
            print(f"retention: dropped {len(dropped)} partitions "
                  f"older than {args.retain_from}")
        demoted = store.compact(keep_hot_years=args.keep_hot_years)
        tiers = store.status()["tiers"]
        print(f"compacted: {len(demoted)} partitions demoted to cold "
              f"({tiers['hot']} hot / {tiers['cold']} cold)")
    else:
        store = _open_partitioned(args.dir)
        print(json.dumps(store.status(), indent=2, sort_keys=True))
    return 0


def _stream(seed: int, scale: float, jobs: int,
            replay: Optional[str], checkpoint: Optional[str],
            dataset: str = "sevs",
            store_dir: Optional[str] = None) -> None:
    import os

    from repro.io import read_records, sniff_dataset
    from repro.stream import StreamEngine, generate_aggregates
    from repro.viz import stream_dashboard

    if store_dir is not None:
        # Replay a partitioned store: the manifest plans the scan and
        # the records fold exactly as a file replay of the same rows.
        store = _open_partitioned(store_dir)
        if checkpoint is not None:
            print("(checkpointing is file-replay-only; ignoring "
                  "--checkpoint for the store replay)")
        if store.domain == "ticket":
            _stream_tickets(
                iter(store.records()),
                "ingested {count} tickets from " + store_dir,
            )
            return
        engine = StreamEngine()
        consumed = engine.run(store.records())
        print(f"ingested {consumed} events from {store_dir} "
              f"({len(store.partition_keys())} partitions)")
        print()
        print(stream_dashboard(engine.aggregates, None))
        return

    if replay is not None:
        _check_data_file(replay)
        if sniff_dataset(replay) == "tickets":
            if checkpoint is not None:
                print("(checkpointing is SEV-only; ignoring --checkpoint "
                      "for the ticket stream)")
            _stream_tickets(
                read_records(replay, "tickets"),
                "ingested {count} tickets from " + replay,
            )
            return
    elif dataset == "tickets":
        from repro.stream import live_ticket_feed

        if checkpoint is not None:
            print("(checkpointing is SEV-only; ignoring --checkpoint "
                  "for the ticket stream)")
        scenario = paper_backbone_scenario(seed=seed)
        _stream_tickets(
            live_ticket_feed(scenario), "generated {count} tickets"
        )
        return

    fleet = None
    if replay is not None:
        # Incremental ingestion: replay the exported corpus event by
        # event, resuming from the checkpoint when one exists.  A
        # corrupt snapshot (torn write) is ignored with a warning and
        # the replay restarts from the beginning.
        if checkpoint is not None and os.path.exists(checkpoint):
            engine = StreamEngine.resume_or_fresh(checkpoint)
            if engine.events_ingested:
                print(f"resumed from {checkpoint} "
                      f"({engine.events_ingested} events already ingested)")
        else:
            engine = StreamEngine(checkpoint_path=checkpoint)
        consumed = engine.run(read_records(replay, "sevs"))
        print(f"ingested {consumed} new events from {replay}")
        aggregates = engine.aggregates
    else:
        # Sharded parallel generation: N workers, identical output.
        scenario = paper_scenario(seed=seed, scale=scale)
        fleet = scenario.fleet
        aggregates = generate_aggregates(scenario, jobs=jobs)
        print(f"generated {aggregates.events} events "
              f"across {jobs} worker(s)")
        if checkpoint is not None:
            from repro.stream import save_checkpoint

            save_checkpoint(checkpoint, aggregates, aggregates.events)
            print(f"checkpoint written to {checkpoint}")
    print()
    print(stream_dashboard(aggregates, fleet))


def _stream_tickets(source, banner: str) -> None:
    """Fold a ticket feed into the runtime's mergeable states."""
    from repro.runtime.states import OutageTallies, TicketDurationSketches
    from repro.viz import ticket_dashboard

    outages = OutageTallies()
    durations = TicketDurationSketches()
    count = 0
    for ticket in source:
        outages.fold(ticket)
        durations.fold(ticket)
        count += 1
    print(banner.format(count=count))
    print()
    print(ticket_dashboard(outages, durations))


def _analyze(path: str) -> None:
    from repro.io import read_records, sniff_dataset

    _check_data_file(path)
    dataset = sniff_dataset(path)
    records = read_records(path, dataset)
    if dataset == "tickets":
        _analyze_tickets(records)
        return
    from repro.incidents.store import SEVStore
    from repro.runtime import RunContext

    # Imported SEVs keep their ids.
    with SEVStore() as store:
        store.bulk_load(records)
        _print_intra_tables(RunContext(store=store, fleet=paper_fleet()))


def _analyze_tickets(tickets) -> None:
    """Analyze an imported ticket corpus through the runtime.

    Without a topology there are no edge-level artifacts; the
    vendor scorecards and repair-duration percentiles cover what a
    standalone ticket export can support.
    """
    from repro.backbone.tickets import TicketDatabase
    from repro.runtime import Executor, RunContext
    from repro.runtime.analyses import (
        RepairDurationAnalysis,
        VendorScorecardAnalysis,
    )
    from repro.viz import duration_table, scorecard_table

    # Imported tickets are renumbered, as the database numbers every
    # ticket it completes.
    db = TicketDatabase()
    for ticket in tickets:
        db.add_completed(
            link_id=ticket.link_id,
            vendor=ticket.vendor,
            started_at_h=ticket.started_at_h,
            completed_at_h=ticket.completed_at_h,
            ticket_type=ticket.ticket_type,
            location=ticket.location,
        )
    print(f"corpus: {len(db.completed())} completed tickets, "
          f"{len(db.links())} links, {len(db.vendors())} vendors\n")
    results = Executor().run(
        [VendorScorecardAnalysis(), RepairDurationAnalysis()],
        RunContext(tickets=db),
    )
    print(scorecard_table(results["vendor_scorecards"]))
    print("\n" + duration_table(results["repair_durations"]))


def _full_report(seed: Optional[int], scale: float,
                 cache_dir: Optional[str] = None,
                 jobs: int = 1,
                 digest: bool = False) -> None:
    from repro.runtime import (
        build_backbone_context, build_intra_context, run_backbone_report,
        run_intra_report,
    )

    cache = _cache(cache_dir)
    intra = run_intra_report(build_intra_context(seed, scale),
                             jobs=jobs, cache=cache)
    print(intra.render())
    _print_footer(intra, cache, digest)

    # The backbone section reads and fills the cache but prints no
    # [cache] line of its own.
    backbone = run_backbone_report(build_backbone_context(seed),
                                   jobs=jobs, cache=cache)
    print("\n" + backbone.render())
    _print_footer(backbone, None, digest)

    print()
    _survivability_report(seed, cache_dir, jobs, digest=digest)


def _chaos(seed: int, sites: Optional[str], quick: bool,
           out: Optional[str]) -> int:
    """Run the fault-injection drill suite and summarize it."""
    from repro.faultline.drills import chaos_suite, report_json

    chosen = None
    if sites is not None:
        chosen = [site.strip() for site in sites.split(",") if site.strip()]
    report = chaos_suite(seed=seed, quick=quick, sites=chosen)
    for drill in report["drills"]:
        status = "PASS" if drill["passed"] else "FAIL"
        detail = drill["detail"]
        fired = detail.get("faults_fired", 0)
        print(f"[{status}] {drill['name']:<13} "
              f"sites={','.join(detail['sites']) or '-'} "
              f"faults={fired}")
    print(f"\nfault report digest {report['report_digest'][:16]} "
          f"(seed {report['seed']})")
    if out is not None:
        from pathlib import Path

        Path(out).write_text(report_json(report))
        print(f"report written to {out}")
    return 0 if report["passed"] else 1


def _serve(args) -> int:
    """Start the long-lived report service (blocks until shutdown)."""
    from repro.serve import ServeApp

    app = ServeApp(
        seed=args.seed, scale=args.scale,
        backbone_seed=args.backbone_seed,
        host=args.host, port=args.port,
        data_dir=args.data_dir, job_workers=args.jobs,
        prewarm=not args.no_warm, corpus_path=args.corpus,
        store_dir=args.store_dir,
    )
    try:
        app.start()
        pending = app.queue.stats()["queued"]
        if pending:
            print(f"resumed {pending} pending job(s) from "
                  f"{app.data_dir / 'jobs.json'}")
        print(f"serving on {app.url} "
              f"(seed {app.state.seed}, scale {app.state.scale}, "
              f"{args.jobs} job worker(s))")
        print(f"  try: curl {app.url}/healthz")
        print(f"       curl {app.url}/reports/intra")
        app.serve_forever()
    finally:
        app.stop()
    return 0


def _coerce_axis_value(text: str):
    """CLI axis values: bool, int, float, then string — in that order."""
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def _parse_axes(specs: List[str]) -> dict:
    """``--axes`` strings into a {path: values} mapping.

    Each spec is ``PATH=V1,V2,...`` or ``PATH=LO..HI`` (an inclusive
    integer range); repeated paths are rejected rather than silently
    merged.
    """
    axes: dict = {}
    for text in specs:
        path, sep, values = text.partition("=")
        path = path.strip()
        if not sep or not path or not values.strip():
            raise SystemExit(
                f"bad --axes {text!r}: expected PATH=V1,V2,... "
                f"or PATH=LO..HI"
            )
        if path in axes:
            raise SystemExit(f"duplicate --axes path {path!r}")
        values = values.strip()
        if ".." in values and "," not in values:
            lo, _, hi = values.partition("..")
            try:
                axes[path] = list(range(int(lo), int(hi) + 1))
            except ValueError:
                raise SystemExit(
                    f"bad --axes range {values!r}: LO..HI needs integers"
                )
            if not axes[path]:
                raise SystemExit(f"empty --axes range {values!r}")
        else:
            axes[path] = [
                _coerce_axis_value(v.strip()) for v in values.split(",")
            ]
    return axes


def _grid_base_spec(args):
    """Resolve the base spec of a grid command from its arguments."""
    from repro.scenarios import load_spec, preset

    base = load_spec(args.spec) if args.spec else preset(args.preset)
    updates = {}
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.scale is not None:
        updates["scale"] = args.scale
    return base.with_updates(**updates) if updates else base


def _grid(args) -> int:
    import json

    from repro.scenarios import GridRunner, GridSpec, grid_diff
    from repro.viz import axis_table, grid_table

    if args.grid_command == "diff":
        with open(args.left) as fh:
            left = json.load(fh)
        with open(args.right) as fh:
            right = json.load(fh)
        diff = grid_diff(left, right)
        print(json.dumps(diff, indent=1, sort_keys=True))
        return 0 if diff["identical"] else 1

    grid = GridSpec(base=_grid_base_spec(args),
                    axes=_parse_axes(args.axes))

    if args.grid_command == "expand":
        print(f"grid: {grid.cell_count()} cells over "
              f"{len(grid.axes)} axes (digest {grid.digest()[:12]})")
        for cell in grid.cells():
            params = ", ".join(
                f"{path}={cell.overrides[path]}"
                for path in sorted(cell.overrides)
            )
            print(f"  cell {cell.index:3d}  {params}  "
                  f"spec={cell.spec.digest()[:12]}")
        return 0

    from repro.runtime import ResultCache

    cache = ResultCache(args.cache) if args.cache is not None else None
    from repro.stream import resolve_jobs

    runner = GridRunner(jobs=resolve_jobs(args.jobs), cache=cache)
    report = runner.run(grid)
    print(grid_table(report))
    table_axis = args.table_axis
    if table_axis is None and len(grid.axes) > 1:
        table_axis = grid.axis_paths[0]
    if table_axis is not None:
        metrics = report["cells"][0]["metrics"]
        if args.table_metric in metrics:
            print()
            print(axis_table(report, table_axis, args.table_metric))
    print(f"\nsummary_digest: {report['summary_digest']}")
    print(f"[grid] {len(report['cells'])} cells, "
          f"{report['cache']['cell_hits']} cached, "
          f"{report['cache']['cell_misses']} computed")
    if args.out is not None:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
        print(f"[grid] report written to {args.out}")
    return 0


def _scenario(args) -> int:
    from pathlib import Path

    from repro.scenarios import (
        ScenarioError, list_presets, load_spec, preset,
    )

    if args.scenario_command == "list":
        for name in list_presets():
            spec = preset(name)
            print(f"{name:20s} kind={spec.kind:9s} "
                  f"digest={spec.digest()[:12]}")
        return 0
    if args.scenario_command == "show":
        if Path(args.spec).exists():
            spec = load_spec(args.spec)
        else:
            spec = preset(args.spec)
        import json

        print(json.dumps(spec.to_dict(), indent=1, sort_keys=True))
        print(f"digest: {spec.digest()}")
        return 0
    # validate
    failed = 0
    for path in args.paths:
        try:
            spec = load_spec(path)
        except ScenarioError as exc:
            print(f"[FAIL] {path}: {exc}")
            failed += 1
        else:
            print(f"[OK]   {path}: {spec.name} ({spec.kind}) "
                  f"digest={spec.digest()[:12]}")
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except KeyboardInterrupt:
        # Long-running modes (serve, stream, bench) end at Ctrl-C;
        # that is a shutdown, not a crash — no traceback.
        print("\ninterrupted", file=sys.stderr)
        return 130


def _dispatch(args) -> int:
    if args.command == "report":
        from repro.stream import resolve_jobs

        jobs = resolve_jobs(args.jobs)
        if args.store_dir is not None:
            _check_store(args.store_dir, args.study)
        if args.study == "intra":
            _intra_report(args.seed, args.scale, args.cache, jobs,
                          digest=args.digest, store_dir=args.store_dir)
        elif args.study == "backbone":
            _backbone_report(args.seed, args.cache, jobs,
                             digest=args.digest, store_dir=args.store_dir)
        elif args.study == "survivability":
            _survivability_report(args.seed, args.cache, jobs,
                                  digest=args.digest)
        else:
            _full_report(args.seed, args.scale, args.cache, jobs,
                         digest=args.digest)
        if args.cache_prune is not None:
            if args.cache is None:
                raise SystemExit(
                    "--cache-prune needs --cache DIR (nothing to prune "
                    "without a persistent cache)"
                )
            from repro.runtime import ResultCache

            cache = ResultCache(args.cache)
            evicted = cache.prune(args.cache_prune)
            print(f"\n[cache] pruned {evicted} entries; "
                  f"{cache.disk_bytes()} bytes on disk "
                  f"(limit {args.cache_prune})")
    elif args.command == "export":
        _export(args.dataset, args.path, args.seed, args.scale)
    elif args.command == "analyze":
        _analyze(args.path)
    elif args.command == "stream":
        _stream(args.seed, args.scale, args.jobs,
                args.replay, args.checkpoint, args.dataset,
                store_dir=args.store_dir)
    elif args.command == "store":
        return _store(args)
    elif args.command == "scenario":
        return _scenario(args)
    elif args.command == "grid":
        return _grid(args)
    elif args.command == "bench":
        from repro.perf import run_bench_suite

        run_bench_suite(quick=args.quick, out_dir=args.out,
                        seed=args.seed)
    elif args.command == "chaos":
        return _chaos(args.seed, args.sites, args.quick, args.out)
    elif args.command == "serve":
        return _serve(args)
    elif args.command == "verify":
        from repro.verify import render_verification, run_verification

        checks = run_verification(seed=args.seed)
        print(render_verification(checks))
        if not all(c.passed for c in checks):
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
