"""The built-in benchmark suite (``python -m repro bench``).

Four in-process comparisons of strategies that do the same work, each
recorded as a JSON :class:`~repro.perf.record.BenchRecord`.  The
end-to-end workloads (``report full``, ``grid run``, served requests)
are timed in fresh processes by the repository benchmark,
``perfbench/``; these benches time what it cannot see, the strategies
side by side inside one interpreter:

``stream_throughput``
    sharded parallel corpus generation (cells -> aggregates -> merge)
    at several worker counts, including ``jobs="auto"``; reports
    events/s per worker count and the jobs=4 speedup over serial.
``ingest_bulk_load``
    loading one corpus into an on-disk :class:`~repro.incidents.store.SEVStore`
    three ways: row-wise ``insert`` (one transaction per row — the
    historical behavior), ``insert_many`` (one transaction), and
    ``bulk_load`` (indexes dropped, tuned PRAGMAs, ``executemany``
    batches); plus the tiered store's ``ingest`` routing the same rows
    to per-(year, region) SQLite shards at multi-shard scale.  Reports
    rows/s per method and the bulk speedup.
``fold_matrix``
    the fold engine's three strategies — the per-row reference fold,
    the plan, and the plan at ``jobs`` on the shared process pool —
    × both storage layouts; asserts all six digests are bit-identical,
    quotes every speedup against the fastest serial strategy
    (parallel metrics only where ``cpu_count`` covers ``jobs``), and
    reports the plan's partitioned-over-monolithic overhead.
``backbone_report``
    the section 6 ticket-domain report by the same three strategies
    plus a content-addressed cached re-run; reports tickets/s per
    strategy and the cache speedup, and asserts all agree bit for
    bit.

The suite prints rendered tables and writes one record per benchmark
to the output directory, so successive PRs accumulate a comparable
performance trajectory.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from repro.perf.record import BenchRecord, write_record

#: Default corpus scale for the full suite (the scale the throughput
#: acceptance numbers are quoted at) and for ``--quick``.
FULL_SCALE = 4.0
QUICK_SCALE = 1.0

_JOBS_FULL: Tuple = (1, 2, 4, "auto")
_JOBS_QUICK: Tuple = (1, 2, "auto")

#: Pool width of the ``planned_jobs*`` strategies: the recording
#: host's core count, so the parallel rows are measurable there.
POOLED_JOBS = 2


def events_per_second(events: int, seconds: float) -> float:
    """Throughput, zero when no time was observed (never divides by 0)."""
    if seconds <= 0.0:
        return 0.0
    return events / seconds


def _best_of(rounds: int, run) -> Tuple[float, object]:
    """(best wall seconds over ``rounds`` calls of ``run``, last result)."""
    best, result = float("inf"), None
    for _ in range(max(1, rounds)):
        start = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - start)
    return best, result


def bench_stream_throughput(
    seed: int = 2,
    scale: float = FULL_SCALE,
    jobs_list: Sequence = _JOBS_FULL,
    rounds: int = 3,
) -> BenchRecord:
    """Measure sharded generation throughput per worker count.

    Each worker count runs ``rounds`` times and keeps the best time —
    the steady state the reused worker pool is built for.  The record
    also carries the cross-jobs digest check: every worker count must
    produce bit-identical aggregates.
    """
    from repro.runtime import shutdown_executor_pool
    from repro.simulation.scenarios import paper_scenario
    from repro.stream import generate_aggregates
    from repro.stream.sharding import resolve_jobs

    scenario = paper_scenario(seed=seed, scale=scale)
    per_jobs = []
    digests = set()
    events = 0
    for jobs in jobs_list:
        best, aggregates = _best_of(
            rounds, lambda: generate_aggregates(scenario, jobs=jobs)
        )
        events = aggregates.events
        digests.add(aggregates.digest())
        per_jobs.append({
            "jobs": jobs,
            "resolved_jobs": resolve_jobs(jobs, total_weight=events),
            "seconds": best,
            "events": events,
            "events_per_s": events_per_second(events, best),
        })
    shutdown_executor_pool()

    by_jobs = {entry["jobs"]: entry for entry in per_jobs}
    metrics = {
        "events": events,
        "digests_identical": len(digests) == 1,
        "per_jobs": per_jobs,
    }
    if 1 in by_jobs:
        for jobs, entry in by_jobs.items():
            if jobs == 1:
                continue
            metrics[f"speedup_jobs{jobs}"] = (
                by_jobs[1]["seconds"] / entry["seconds"]
                if entry["seconds"] > 0 else 0.0
            )
    return BenchRecord(
        name="stream_throughput",
        params={
            "seed": seed, "scale": scale,
            "jobs": list(jobs_list), "rounds": rounds,
        },
        metrics=metrics,
    )


def bench_ingest(
    seed: int = 2,
    scale: float = FULL_SCALE,
) -> BenchRecord:
    """Measure SEV store ingestion: row-wise vs batched vs bulk.

    Every variant loads the identical report list into a fresh
    *on-disk* database (durability costs are the point).  Each variant
    is timed once, since a second load into the same store would
    double its rows, and the loaded stores must hold identical
    content.
    """
    from repro.faultline.oracle import report_digest
    from repro.incidents.store import SEVStore
    from repro.simulation.generator import iter_scenario_reports
    from repro.simulation.scenarios import paper_scenario
    from repro.storage import PartitionedSEVStore

    scenario = paper_scenario(seed=seed, scale=scale)
    reports = list(iter_scenario_reports(scenario))

    def measure(method: str, store, load) -> dict:
        seconds, _ = _best_of(1, lambda: load(store))
        rows = len(store)
        assert rows == len(reports)
        return {
            "method": method,
            "seconds": seconds,
            "rows": rows,
            "rows_per_s": events_per_second(rows, seconds),
            "content_digest": report_digest(
                sorted(store.all_reports(), key=lambda r: r.sev_id)
            ),
        }

    def rowwise(store):
        for report in reports:
            store.insert(report)

    variants = []
    with tempfile.TemporaryDirectory() as tmp:
        for method, load in (
            ("insert_rowwise", rowwise),
            ("insert_many", lambda s: s.insert_many(reports)),
            ("bulk_load", lambda s: s.bulk_load(reports)),
        ):
            with SEVStore(str(Path(tmp) / f"{method}.db")) as store:
                variants.append(measure(method, store, load))
        # The tiered store routes the same rows to per-(year, region)
        # SQLite shards — the multi-shard ingest path of repro.storage.
        tiered = PartitionedSEVStore.init(
            Path(tmp) / "tiered", meta={"seed": seed, "scale": scale}
        )
        variants.append(measure("partitioned_ingest", tiered,
                                lambda s: s.ingest(reports)))
        partitions = len(tiered.partition_keys())
        variants[-1]["partitions"] = partitions

    by_method = {entry["method"]: entry for entry in variants}
    bulk = by_method["bulk_load"]["seconds"]
    metrics = {
        "rows": len(reports),
        "partitions": partitions,
        "digests_identical": len(
            {entry["content_digest"] for entry in variants}
        ) == 1,
        "variants": variants,
        "bulk_speedup_vs_rowwise": (
            by_method["insert_rowwise"]["seconds"] / bulk
            if bulk > 0 else 0.0
        ),
        "bulk_speedup_vs_insert_many": (
            by_method["insert_many"]["seconds"] / bulk
            if bulk > 0 else 0.0
        ),
    }
    return BenchRecord(
        name="ingest_bulk_load",
        params={"seed": seed, "scale": scale},
        metrics=metrics,
    )


def _fold_strategies(analyses, context, assemble, jobs: int,
                     batch_size: Optional[int] = None) -> list:
    """``(label, run)`` for the strategies every fold bench times.

    The per-row reference fold, the plan, and the plan at ``jobs``
    (``batch_size``-row column batches, so small corpora still ship
    shards to the pool).
    """
    from repro.runtime import Executor, reference_fold

    def planned(n: int):
        return lambda: assemble(Executor(jobs=n, batch_size=batch_size).run(
            analyses(), context
        ))

    return [
        ("reference", lambda: assemble(reference_fold(analyses(), context))),
        ("planned", planned(1)),
        (f"planned_jobs{jobs}", planned(jobs)),
    ]


def _quote_speedups(entries: List[dict]) -> str:
    """Add ``speedup_vs_fastest_serial`` to each entry; returns the
    fastest serial strategy's label (every strategy but the pooled
    one is serial)."""
    serial = [e for e in entries if not e["strategy"].startswith(
        "planned_jobs")]
    fastest = min(serial, key=lambda e: e["seconds"])
    for entry in entries:
        entry["speedup_vs_fastest_serial"] = (
            fastest["seconds"] / entry["seconds"]
            if entry["seconds"] > 0 else 0.0
        )
    return fastest["strategy"]


def _parallel_metrics(entries: List[dict], jobs: int, cores: int) -> dict:
    """Parallel speedup of the plan at ``jobs`` over the fastest serial
    strategy — ``None`` with a reason when the host has fewer cores
    than workers, where no parallel speedup can be measured."""
    if cores < jobs:
        return {
            "parallel_speedup_vs_serial": None,
            "parallel_efficiency_vs_cores": None,
            "parallel_reason": f"cpu_count {cores} < jobs {jobs}",
        }
    (pooled,) = [e for e in entries
                 if e["strategy"] == f"planned_jobs{jobs}"]
    speedup = pooled["speedup_vs_fastest_serial"]
    return {
        "parallel_speedup_vs_serial": speedup,
        "parallel_efficiency_vs_cores": speedup / jobs,
        "parallel_reason": None,
    }


def bench_backbone(
    seed: int = 7,
    links_per_edge: int = 3,
    rounds: int = 3,
) -> BenchRecord:
    """Measure the backbone report: reference fold vs the plan.

    One ticket corpus, one :class:`~repro.runtime.RunContext`, and the
    identical section 6 report from the per-row reference fold, the
    plan, and the plan at :data:`POOLED_JOBS` (256-ticket batches
    shipped to the pool); each runs ``rounds`` times and keeps the
    best time.  A cached re-run (second pass against a warm
    :class:`~repro.runtime.ResultCache`) is timed separately — its
    corpus pass count is zero, so it bounds the price of the report
    plumbing itself.
    """
    import os

    from repro.runtime import (
        ResultCache,
        RunContext,
        backbone_report_analyses,
        backbone_report_from,
        run_backbone_report,
        shutdown_executor_pool,
    )
    from repro.simulation.backbone_sim import BackboneSimulator
    from repro.simulation.scenarios import paper_backbone_scenario

    corpus = BackboneSimulator(
        paper_backbone_scenario(seed=seed, links_per_edge=links_per_edge)
    ).run()
    context = RunContext(
        tickets=corpus.tickets, topology=corpus.topology,
        window_h=corpus.window_h, corpus_seed=seed,
    )
    tickets = len(corpus.tickets)

    def assemble(results):
        return backbone_report_from(results, corpus.window_h)

    per_strategy = []
    reports = []
    strategies = _fold_strategies(backbone_report_analyses, context,
                                  assemble, POOLED_JOBS, batch_size=256)
    cache = ResultCache()
    run_backbone_report(context, cache=cache)
    strategies.append(
        ("cached", lambda: run_backbone_report(context, cache=cache))
    )
    for label, run in strategies:
        seconds, report = _best_of(rounds, run)
        reports.append(report)
        per_strategy.append({
            "strategy": label,
            "seconds": seconds,
            "tickets": tickets,
            "tickets_per_s": events_per_second(tickets, seconds),
        })
    shutdown_executor_pool()
    fastest = _quote_speedups(per_strategy[:-1])
    by_strategy = {e["strategy"]: e for e in per_strategy}
    metrics = {
        "tickets": tickets,
        "window_h": corpus.window_h,
        "cores": os.cpu_count() or 1,
        "digests_identical": all(r == reports[0] for r in reports),
        "per_strategy": per_strategy,
        "fastest_serial": fastest,
        "cache_speedup_vs_fastest_serial": (
            by_strategy[fastest]["seconds"] / by_strategy["cached"]["seconds"]
            if by_strategy["cached"]["seconds"] > 0 else 0.0
        ),
        **_parallel_metrics(per_strategy, POOLED_JOBS, os.cpu_count() or 1),
    }
    return BenchRecord(
        name="backbone_report",
        params={
            "seed": seed, "links_per_edge": links_per_edge,
            "rounds": rounds, "jobs": POOLED_JOBS,
        },
        metrics=metrics,
    )


def bench_fold_matrix(
    seed: int = 2,
    scale: float = FULL_SCALE,
    jobs: int = POOLED_JOBS,
    rounds: int = 3,
) -> BenchRecord:
    """Measure the fold engine across strategies and storage layouts.

    One corpus, stored twice — the monolithic SQLite file and a tiered
    partitioned store with roughly half its history demoted to the
    gzip cold tier — and each layout answered three ways:

    ``reference``
        the per-row reference fold
    ``planned``
        the executor's plan: SQL on every SQLite shard, column batches
        for the cold partitions
    ``planned_jobs{N}``
        the plan with its column batches shipped to ``jobs`` pool
        workers (SQL folds stay in the parent, so this differs from
        ``planned`` only where batches exist)

    Every variant must produce the identical ``report_digest``.
    Speedups are quoted against the fastest serial strategy of the
    same layout; the parallel metrics are ``None``, with a reason,
    when the recorded ``cpu_count`` is below ``jobs``.
    ``partitioned_overhead`` is the plan's seconds on the partitioned
    layout over its seconds on the monolithic one.
    """
    import os

    from repro.faultline.oracle import report_digest
    from repro.runtime import (
        RunContext,
        intra_report_analyses,
        intra_report_from,
        shutdown_executor_pool,
    )
    from repro.simulation.generator import IntraSimulator
    from repro.simulation.scenarios import paper_scenario
    from repro.storage import PartitionedSEVStore

    cores = os.cpu_count() or 1
    scenario = paper_scenario(seed=seed, scale=scale)
    mono = IntraSimulator(scenario).run()
    rows = len(mono)
    variants = []
    with tempfile.TemporaryDirectory() as tmp:
        store = PartitionedSEVStore.init(
            Path(tmp) / "tiered", meta={"seed": seed, "scale": scale}
        )
        store.ingest(mono.all_reports())
        years = store.years()
        if len(years) > 1:
            store.compact(keep_hot_years=max(1, len(years) // 2))
        tiers = store.status()["tiers"]
        for layout, target in (("monolithic", mono), ("partitioned", store)):
            context = RunContext(
                store=target, fleet=scenario.fleet, corpus_seed=seed
            )
            for label, run in _fold_strategies(
                intra_report_analyses, context, intra_report_from, jobs
            ):
                seconds, report = _best_of(rounds, run)
                variants.append({
                    "layout": layout,
                    "strategy": label,
                    "seconds": seconds,
                    "rows": rows,
                    "rows_per_s": events_per_second(rows, seconds),
                    "report_digest": report_digest(report),
                })
    shutdown_executor_pool()

    layouts = {}
    for layout in ("monolithic", "partitioned"):
        entries = [e for e in variants if e["layout"] == layout]
        layouts[layout] = {
            "fastest_serial": _quote_speedups(entries),
            **_parallel_metrics(entries, jobs, cores),
        }
    planned = {e["layout"]: e["seconds"] for e in variants
               if e["strategy"] == "planned"}
    metrics = {
        "rows": rows,
        "jobs": jobs,
        "cores": cores,
        "partitions": tiers["hot"] + tiers["cold"],
        "tiers": tiers,
        "digests_identical": len(
            {entry["report_digest"] for entry in variants}
        ) == 1,
        "per_variant": variants,
        "layouts": layouts,
        "partitioned_overhead": (
            planned["partitioned"] / planned["monolithic"]
            if planned["monolithic"] > 0 else 0.0
        ),
    }
    return BenchRecord(
        name="fold_matrix",
        params={
            "seed": seed, "scale": scale, "jobs": jobs, "rounds": rounds,
        },
        metrics=metrics,
    )


def render_stream_record(record: BenchRecord) -> str:
    from repro.viz.tables import format_table

    rows = [
        [
            str(entry["jobs"]),
            entry["resolved_jobs"],
            entry["events"],
            f"{entry['seconds']:.3f}",
            f"{entry['events_per_s']:,.0f}",
        ]
        for entry in record.metrics["per_jobs"]
    ]
    return format_table(
        ["Jobs", "Workers", "Events", "Seconds", "Events/sec"],
        rows,
        title=(f"Streaming generation throughput "
               f"(scale={record.params['scale']}, "
               f"cpus={record.env['cpu_count']})"),
    )


def render_ingest_record(record: BenchRecord) -> str:
    from repro.viz.tables import format_table

    bulk = {e["method"]: e for e in record.metrics["variants"]}
    bulk_s = bulk["bulk_load"]["seconds"]
    rows = [
        [
            entry["method"],
            entry["rows"],
            f"{entry['seconds']:.3f}",
            f"{entry['rows_per_s']:,.0f}",
            f"{entry['seconds'] / bulk_s:.1f}x" if bulk_s > 0 else "-",
        ]
        for entry in record.metrics["variants"]
    ]
    return format_table(
        ["Method", "Rows", "Seconds", "Rows/sec", "vs bulk"],
        rows,
        title=(f"SEV store ingest, on-disk "
               f"(scale={record.params['scale']})"),
    )


def _speedup(entry: dict) -> str:
    speedup = entry.get("speedup_vs_fastest_serial")
    return "-" if speedup is None else f"{speedup:.2f}x"


def render_fold_matrix_record(record: BenchRecord) -> str:
    from repro.viz.tables import format_table

    metrics = record.metrics
    rows = [
        [
            entry["layout"],
            entry["strategy"],
            entry["rows"],
            f"{entry['seconds']:.3f}",
            f"{entry['rows_per_s']:,.0f}",
            _speedup(entry),
        ]
        for entry in metrics["per_variant"]
    ]
    return format_table(
        ["Layout", "Strategy", "Rows", "Seconds", "Rows/sec",
         "vs fastest serial"],
        rows,
        title=(f"Fold matrix (scale={record.params['scale']}, "
               f"jobs={metrics['jobs']} on {metrics['cores']} cores, "
               f"partitioned overhead "
               f"{metrics['partitioned_overhead']:.2f}x, "
               f"identical={metrics['digests_identical']})"),
    )


def render_backbone_record(record: BenchRecord) -> str:
    from repro.viz.tables import format_table

    rows = [
        [
            entry["strategy"],
            entry["tickets"],
            f"{entry['seconds']:.3f}",
            f"{entry['tickets_per_s']:,.1f}",
            _speedup(entry),
        ]
        for entry in record.metrics["per_strategy"]
    ]
    return format_table(
        ["Strategy", "Tickets", "Seconds", "Tickets/sec",
         "vs fastest serial"],
        rows,
        title=(f"Backbone report, reference vs planned "
               f"(seed={record.params['seed']}, "
               f"identical={record.metrics['digests_identical']})"),
    )


def run_bench_suite(
    quick: bool = False,
    out_dir: Optional[Path] = None,
    seed: int = 2,
) -> List[BenchRecord]:
    """Run every benchmark; print tables; write JSON records.

    ``quick`` shrinks the corpus and the worker sweep so the suite
    finishes in seconds (the CI smoke configuration); the record
    parameters say which configuration produced the numbers.
    """
    scale = QUICK_SCALE if quick else FULL_SCALE
    jobs_list = _JOBS_QUICK if quick else _JOBS_FULL
    rounds = 1 if quick else 3

    stream = bench_stream_throughput(
        seed=seed, scale=scale, jobs_list=jobs_list, rounds=rounds
    )
    ingest = bench_ingest(seed=seed, scale=scale)
    fold = bench_fold_matrix(seed=seed, scale=scale, rounds=rounds)
    backbone = bench_backbone(rounds=rounds)

    print(render_stream_record(stream))
    print()
    print(render_ingest_record(ingest))
    print()
    print(render_fold_matrix_record(fold))
    print()
    print(render_backbone_record(backbone))
    records = [stream, ingest, fold, backbone]
    if out_dir is not None:
        for record in records:
            path = write_record(record, out_dir)
            print(f"\n[perf] wrote {path}")
    return records
