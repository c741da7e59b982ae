"""The built-in benchmark suite (``python -m repro bench``).

Eight hot paths, each measured with :mod:`repro.perf` primitives and
recorded as a JSON :class:`~repro.perf.record.BenchRecord`:

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
``partitioned_scan``
    the full intra report over a monolithic store vs a tiered
    partitioned store (half its history demoted to the gzip cold
    tier), by the per-row reference fold and by the plan; asserts
    every variant's ``report_digest`` is bit-identical and reports
    the partitioned-scan overhead.
``fold_matrix``
    the fold engine's three strategies — the per-row reference fold,
    the plan, and the plan at ``jobs`` on the shared process pool —
    × both storage layouts; asserts all six digests are bit-identical
    and quotes every speedup against the fastest serial strategy
    (parallel metrics only where ``cpu_count`` covers ``jobs``).
``backbone_report``
    the section 6 ticket-domain report by the same three strategies
    plus a content-addressed cached re-run; reports tickets/s per
    strategy and the cache speedup, and asserts all agree bit for
    bit.
``serve_latency``
    a live :mod:`repro.serve` server under concurrent readers plus one
    job-submitting writer; reports requests/s and p50/p99 latency per
    endpoint with zero tolerated errors.
``grid_sweep``
    a small what-if lattice expanded by :class:`~repro.scenarios.GridSpec`
    and run cold through :class:`~repro.scenarios.GridRunner` at one
    and two jobs (fresh :class:`~repro.runtime.ResultCache` each),
    then warm; reports cells/s per run, the warm re-run's cache-hit
    ratio, and asserts the grid's ``summary_digest`` never moves.
``survivability``
    the correlated-failure survivability study over one generated
    trial corpus by the three fold strategies plus a warm cached
    re-run; asserts every ``report_digest`` is bit-identical and
    reports rows/s per strategy and the cache-hit ratio.

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
from repro.perf.timers import events_per_second

#: Default corpus scale for the full suite (the scale the throughput
#: acceptance numbers are quoted at) and for ``--quick``.
FULL_SCALE = 4.0
QUICK_SCALE = 1.0

_JOBS_FULL: Tuple = (1, 2, 4, "auto")
_JOBS_QUICK: Tuple = (1, 2, "auto")

#: Pool width of the ``planned_jobs*`` strategies: the recording
#: host's core count, so the parallel rows are measurable there.
POOLED_JOBS = 2


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
    directory: Optional[Path] = None,
) -> BenchRecord:
    """Measure SEV store ingestion: row-wise vs batched vs bulk.

    Every variant loads the identical report list into a fresh
    *on-disk* database (durability costs are the point), and the
    loaded stores are checked for identical row counts.
    """
    from repro.incidents.store import SEVStore
    from repro.simulation.generator import iter_scenario_reports
    from repro.simulation.scenarios import paper_scenario

    scenario = paper_scenario(seed=seed, scale=scale)
    reports = list(iter_scenario_reports(scenario))

    def timed_load(name: str, load) -> dict:
        with tempfile.TemporaryDirectory() as tmp:
            with SEVStore(str(Path(tmp) / f"{name}.db")) as store:
                start = time.perf_counter()
                load(store)
                seconds = time.perf_counter() - start
                rows = len(store)
        assert rows == len(reports)
        return {
            "method": name,
            "seconds": seconds,
            "rows": rows,
            "rows_per_s": events_per_second(rows, seconds),
        }

    def rowwise(store):
        for report in reports:
            store.insert(report)

    variants = [
        timed_load("insert_rowwise", rowwise),
        timed_load("insert_many", lambda s: s.insert_many(reports)),
        timed_load("bulk_load", lambda s: s.bulk_load(reports)),
    ]

    # The tiered store routes the same rows to per-(year, region)
    # SQLite shards — the multi-shard ingest path of repro.storage.
    from repro.storage import PartitionedSEVStore

    with tempfile.TemporaryDirectory() as tmp:
        store = PartitionedSEVStore.init(
            Path(tmp) / "tiered", meta={"seed": seed, "scale": scale}
        )
        start = time.perf_counter()
        store.ingest(reports)
        seconds = time.perf_counter() - start
        rows = len(store)
        partitions = len(store.partition_keys())
    assert rows == len(reports)
    variants.append({
        "method": "partitioned_ingest",
        "seconds": seconds,
        "rows": rows,
        "rows_per_s": events_per_second(rows, seconds),
        "partitions": partitions,
    })

    by_method = {entry["method"]: entry for entry in variants}
    bulk = by_method["bulk_load"]["seconds"]
    metrics = {
        "rows": len(reports),
        "partitions": partitions,
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

    from repro.backbone.monitor import BackboneMonitor
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
    monitor = BackboneMonitor(corpus.topology, corpus.tickets)
    context = RunContext(
        monitor=monitor, topology=corpus.topology,
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


def _layout_strategies(seed: int, scale: float, rounds: int, jobs: int,
                       strategies: int) -> Tuple[int, dict, List[dict]]:
    """Time the intra report's fold strategies over both storage layouts.

    One corpus, stored twice — the monolithic SQLite file and a tiered
    partitioned store with roughly half its history demoted to the
    gzip cold tier — and the first ``strategies`` entries of
    :func:`_fold_strategies` run over each.  Returns ``(rows, tiers,
    entries)``, one entry per (layout, strategy).
    """
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

    scenario = paper_scenario(seed=seed, scale=scale)
    mono = IntraSimulator(scenario).run()
    rows = len(mono)
    entries = []
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
            )[:strategies]:
                seconds, report = _best_of(rounds, run)
                entries.append({
                    "layout": layout,
                    "strategy": label,
                    "seconds": seconds,
                    "rows": rows,
                    "rows_per_s": events_per_second(rows, seconds),
                    "report_digest": report_digest(report),
                })
    shutdown_executor_pool()
    return rows, tiers, entries


def bench_partitioned_scan(
    seed: int = 2,
    scale: float = FULL_SCALE,
    rounds: int = 3,
) -> BenchRecord:
    """Measure the intra report over monolithic vs partitioned storage.

    The per-row reference fold and the plan run over each layout;
    every variant must produce the same ``report_digest`` bit for bit
    — the storage layer's core acceptance criterion, measured rather
    than assumed.  ``partitioned_overhead`` compares the plan across
    the two layouts.
    """
    rows, tiers, variants = _layout_strategies(seed, scale, rounds, 1, 2)
    for layout in ("monolithic", "partitioned"):
        _quote_speedups([e for e in variants if e["layout"] == layout])
    planned = {e["layout"]: e["seconds"] for e in variants
               if e["strategy"] == "planned"}
    metrics = {
        "rows": rows,
        "partitions": tiers["hot"] + tiers["cold"],
        "tiers": tiers,
        "digests_identical": len(
            {entry["report_digest"] for entry in variants}
        ) == 1,
        "per_variant": variants,
        "partitioned_overhead": (
            planned["partitioned"] / planned["monolithic"]
            if planned["monolithic"] > 0 else 0.0
        ),
    }
    return BenchRecord(
        name="partitioned_scan",
        params={"seed": seed, "scale": scale, "rounds": rounds},
        metrics=metrics,
    )


def bench_fold_matrix(
    seed: int = 2,
    scale: float = FULL_SCALE,
    jobs: int = POOLED_JOBS,
    rounds: int = 3,
) -> BenchRecord:
    """Measure the fold engine across strategies and storage layouts.

    Both layouts are answered three ways:

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
    """
    import os

    cores = os.cpu_count() or 1
    rows, tiers, variants = _layout_strategies(seed, scale, rounds, jobs, 3)
    layouts = {}
    for layout in ("monolithic", "partitioned"):
        entries = [e for e in variants if e["layout"] == layout]
        layouts[layout] = {
            "fastest_serial": _quote_speedups(entries),
            **_parallel_metrics(entries, jobs, cores),
        }
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
    }
    return BenchRecord(
        name="fold_matrix",
        params={
            "seed": seed, "scale": scale, "jobs": jobs, "rounds": rounds,
        },
        metrics=metrics,
    )


def bench_grid(
    seed: int = 2,
    scale: float = 0.1,
    rounds: int = 1,
) -> BenchRecord:
    """Measure the what-if grid runner: cold at 1 and 2 jobs, then warm.

    One six-cell lattice (three fabric-rollout years × two CORE hazard
    multipliers) expanded once and run through a fresh
    :class:`~repro.runtime.ResultCache` with the plan at one job and
    at :data:`POOLED_JOBS`, then re-run warm over the one-job cache.  Reports
    cells/s per run and the warm re-run's cache-hit ratio, and asserts
    every run's ``summary_digest`` is bit-identical — the grid
    runner's core acceptance criterion, measured rather than assumed.
    """
    from repro.runtime import ResultCache, shutdown_executor_pool
    from repro.scenarios import GridRunner, GridSpec, preset

    base = preset("paper").with_updates(seed=seed, scale=scale)
    grid = GridSpec(
        base=base,
        axes={
            "fabric_year": [2015, 2016, 2017],
            "hazard.CORE": [1.0, 1.5],
        },
    )
    cells = grid.cell_count()

    caches = {}

    def cold(n: int):
        def run():
            caches[n] = ResultCache()
            return GridRunner(jobs=n, cache=caches[n]).run(grid)
        return run

    per_strategy = []
    for label, run in (("planned", cold(1)),
                       (f"planned_jobs{POOLED_JOBS}", cold(POOLED_JOBS))):
        seconds, report = _best_of(rounds, run)
        per_strategy.append({
            "strategy": label,
            "seconds": seconds,
            "cells": cells,
            "cells_per_s": events_per_second(cells, seconds),
            "summary_digest": report["summary_digest"],
        })
    shutdown_executor_pool()

    warm_s, warm = _best_of(
        1, lambda: GridRunner(cache=caches[1]).run(grid)
    )
    hits = warm["cache"]["cell_hits"]
    misses = warm["cache"]["cell_misses"]
    per_strategy.append({
        "strategy": "cached",
        "seconds": warm_s,
        "cells": cells,
        "cells_per_s": events_per_second(cells, warm_s),
        "summary_digest": warm["summary_digest"],
    })
    cold_s = per_strategy[0]["seconds"]
    metrics = {
        "cells": cells,
        "axes": grid.axis_paths,
        "digests_identical": len(
            {e["summary_digest"] for e in per_strategy}
        ) == 1,
        "per_strategy": per_strategy,
        "cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cache_speedup_vs_cold": cold_s / warm_s if warm_s > 0 else 0.0,
    }
    return BenchRecord(
        name="grid_sweep",
        params={"seed": seed, "scale": scale, "rounds": rounds,
                "jobs": POOLED_JOBS},
        metrics=metrics,
    )


def bench_survivability(
    seed: int = 2,
    trials: int = 24,
    rounds: int = 1,
) -> BenchRecord:
    """Measure the survivability study: reference fold vs the plan.

    One correlated-failure trial corpus (generated once, timed
    separately) answered by the per-row reference fold, the plan, and
    the plan at :data:`POOLED_JOBS` (256-row batches shipped to the
    pool), then
    re-run warm through a :class:`~repro.runtime.ResultCache`.
    Reports rows/s per strategy and the warm re-run's cache-hit
    ratio, and asserts every ``report_digest`` is bit-identical — the
    survivability family's core acceptance criterion, measured rather
    than assumed.
    """
    from repro.faultline.oracle import report_digest
    from repro.runtime import ResultCache, RunContext, shutdown_executor_pool
    from repro.survivability import (
        generate_trials,
        run_survivability_report,
        survivability_report_analyses,
        survivability_report_from,
    )

    generate_s, corpus = _best_of(
        1, lambda: generate_trials(seed=seed, correlated={"trials": trials})
    )
    rows = len(corpus)
    context = RunContext(trials=corpus, corpus_seed=seed)

    cache = ResultCache()
    run_survivability_report(context, cache=cache)
    hits_before, misses_before = cache.hits, cache.misses
    strategies = _fold_strategies(survivability_report_analyses, context,
                                  survivability_report_from, POOLED_JOBS,
                                  batch_size=256)
    strategies.append(
        ("cached", lambda: run_survivability_report(context, cache=cache))
    )
    per_strategy = []
    for label, run in strategies:
        seconds, report = _best_of(rounds, run)
        per_strategy.append({
            "strategy": label,
            "seconds": seconds,
            "rows": rows,
            "rows_per_s": events_per_second(rows, seconds),
            "report_digest": report_digest(report),
        })
    shutdown_executor_pool()
    hits = cache.hits - hits_before
    misses = cache.misses - misses_before
    fastest = _quote_speedups(per_strategy[:-1])
    by_strategy = {e["strategy"]: e for e in per_strategy}
    warm_s = by_strategy["cached"]["seconds"]
    metrics = {
        "rows": rows,
        "generate_seconds": generate_s,
        "digests_identical": len(
            {e["report_digest"] for e in per_strategy}
        ) == 1,
        "per_strategy": per_strategy,
        "fastest_serial": fastest,
        "cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cache_speedup_vs_fastest_serial": (
            by_strategy[fastest]["seconds"] / warm_s if warm_s > 0 else 0.0
        ),
    }
    return BenchRecord(
        name="survivability",
        params={"seed": seed, "trials": trials, "rounds": rounds,
                "jobs": POOLED_JOBS},
        metrics=metrics,
    )


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile over an already-sorted sample."""
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(round(q * (len(sorted_values) - 1))))
    return sorted_values[index]


def bench_serve(
    seed: int = 1,
    scale: float = 0.25,
    readers: int = 8,
    requests_per_reader: int = 25,
    writer_jobs: int = 3,
) -> BenchRecord:
    """Measure the serving layer under concurrent readers + a live writer.

    Starts a real :class:`~repro.serve.ServeApp` (pre-warmed cache) on
    an ephemeral port, then drives it with ``readers`` threads issuing
    HTTP GETs round-robin across the report, figure, table, and stats
    endpoints while one writer thread POSTs ``writer_jobs`` report
    jobs — the worst realistic mix: every read should be a cache hit
    even while the job workers grind.  Reports requests/s and p50/p99
    latency overall and per endpoint; any non-200 response counts as
    an error (and the suite treats errors as a failed run).
    """
    import json as json_mod
    import threading
    import urllib.request

    from repro.serve import ServeApp

    endpoints = [
        "/reports/intra",
        "/reports/backbone",
        "/figures/fig3",
        "/figures/fig15",
        "/tables/table2",
        "/stats",
        "/healthz",
    ]
    samples: List[Tuple[str, float]] = []
    errors: List[str] = []
    record_lock = threading.Lock()

    with ServeApp(seed=seed, scale=scale, prewarm=True) as app:
        base = app.url

        def read_worker(worker: int) -> None:
            for i in range(requests_per_reader):
                endpoint = endpoints[(worker + i) % len(endpoints)]
                start = time.perf_counter()
                try:
                    with urllib.request.urlopen(base + endpoint) as resp:
                        resp.read()
                        ok = resp.status == 200
                        problem = f"{endpoint}: HTTP {resp.status}"
                except Exception as exc:  # noqa: BLE001 - recorded below
                    ok = False
                    problem = f"{endpoint}: {exc}"
                ms = (time.perf_counter() - start) * 1e3
                with record_lock:
                    if ok:
                        samples.append((endpoint, ms))
                    else:
                        errors.append(problem)

        def write_worker() -> None:
            payload = json_mod.dumps({
                "kind": "report",
                "params": {"study": "intra", "seed": seed, "scale": 0.1},
            }).encode()
            for _ in range(writer_jobs):
                request = urllib.request.Request(
                    base + "/jobs", data=payload,
                    headers={"Content-Type": "application/json"},
                )
                try:
                    with urllib.request.urlopen(request) as resp:
                        resp.read()
                except Exception as exc:  # noqa: BLE001 - recorded below
                    with record_lock:
                        errors.append(f"POST /jobs: {exc}")

        threads = [
            threading.Thread(target=read_worker, args=(worker,))
            for worker in range(readers)
        ]
        writer = threading.Thread(target=write_worker)
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        writer.start()
        for thread in threads:
            thread.join()
        writer.join()
        seconds = time.perf_counter() - start
        app.queue.join(timeout=300)
        cache_stats = app.state.cache.stats()
        job_stats = app.queue.stats()

    latencies = sorted(ms for _, ms in samples)
    per_endpoint = {}
    for endpoint in endpoints:
        subset = sorted(ms for e, ms in samples if e == endpoint)
        per_endpoint[endpoint] = {
            "requests": len(subset),
            "p50_ms": _percentile(subset, 0.50),
            "p99_ms": _percentile(subset, 0.99),
        }
    metrics = {
        "requests": len(samples),
        "errors": len(errors),
        "error_samples": errors[:5],
        "seconds": seconds,
        "requests_per_s": events_per_second(len(samples), seconds),
        "p50_ms": _percentile(latencies, 0.50),
        "p99_ms": _percentile(latencies, 0.99),
        "per_endpoint": per_endpoint,
        "cache": cache_stats,
        "jobs": job_stats,
    }
    return BenchRecord(
        name="serve_latency",
        params={
            "seed": seed, "scale": scale, "readers": readers,
            "requests_per_reader": requests_per_reader,
            "writer_jobs": writer_jobs,
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


def _render_layouts(record: BenchRecord, title: str) -> str:
    """The shared table of the per-(layout, strategy) records."""
    from repro.viz.tables import format_table

    rows = [
        [
            entry["layout"],
            entry["strategy"],
            entry["rows"],
            f"{entry['seconds']:.3f}",
            f"{entry['rows_per_s']:,.0f}",
            _speedup(entry),
        ]
        for entry in record.metrics["per_variant"]
    ]
    return format_table(
        ["Layout", "Strategy", "Rows", "Seconds", "Rows/sec",
         "vs fastest serial"],
        rows, title=title,
    )


def render_partitioned_record(record: BenchRecord) -> str:
    tiers = record.metrics["tiers"]
    return _render_layouts(
        record,
        f"Partitioned vs monolithic scan "
        f"({tiers['hot']} hot + {tiers['cold']} cold partitions, "
        f"identical={record.metrics['digests_identical']})",
    )


def _speedup(entry: dict) -> str:
    speedup = entry.get("speedup_vs_fastest_serial")
    return "-" if speedup is None else f"{speedup:.2f}x"


def render_fold_matrix_record(record: BenchRecord) -> str:
    metrics = record.metrics
    return _render_layouts(
        record,
        f"Fold matrix (scale={record.params['scale']}, "
        f"jobs={metrics['jobs']} on {metrics['cores']} cores, "
        f"identical={metrics['digests_identical']})",
    )


def _render_strategies(record: BenchRecord, unit: str, title: str) -> str:
    """The shared table of the per-strategy records."""
    from repro.viz.tables import format_table

    digest_key = next(
        (k for k in ("summary_digest", "report_digest")
         if k in record.metrics["per_strategy"][0]), None,
    )
    rows = [
        [
            entry["strategy"],
            entry[unit],
            f"{entry['seconds']:.3f}",
            f"{entry[f'{unit}_per_s']:,.1f}",
            _speedup(entry),
        ] + ([entry[digest_key][:12]] if digest_key else [])
        for entry in record.metrics["per_strategy"]
    ]
    headers = ["Strategy", unit.capitalize(), "Seconds",
               f"{unit.capitalize()}/sec", "vs fastest serial"]
    if digest_key:
        headers.append("Digest")
    return format_table(headers, rows, title=title)


def render_backbone_record(record: BenchRecord) -> str:
    return _render_strategies(
        record, "tickets",
        f"Backbone report, reference vs planned "
        f"(seed={record.params['seed']}, "
        f"identical={record.metrics['digests_identical']})",
    )


def render_grid_record(record: BenchRecord) -> str:
    metrics = record.metrics
    return _render_strategies(
        record, "cells",
        f"What-if grid sweep (scale={record.params['scale']}, "
        f"cache hits {metrics['cache_hit_ratio']:.0%}, "
        f"identical={metrics['digests_identical']})",
    )


def render_survivability_record(record: BenchRecord) -> str:
    metrics = record.metrics
    return _render_strategies(
        record, "rows",
        f"Survivability study (trials={record.params['trials']}, "
        f"gen {metrics['generate_seconds']:.3f}s, "
        f"cache hits {metrics['cache_hit_ratio']:.0%}, "
        f"identical={metrics['digests_identical']})",
    )


def render_serve_record(record: BenchRecord) -> str:
    from repro.viz.tables import format_table

    rows = [
        [
            endpoint,
            entry["requests"],
            f"{entry['p50_ms']:.1f}",
            f"{entry['p99_ms']:.1f}",
        ]
        for endpoint, entry in record.metrics["per_endpoint"].items()
    ]
    rows.append([
        "(all)",
        record.metrics["requests"],
        f"{record.metrics['p50_ms']:.1f}",
        f"{record.metrics['p99_ms']:.1f}",
    ])
    return format_table(
        ["Endpoint", "Requests", "p50 ms", "p99 ms"],
        rows,
        title=(f"Serve latency ({record.params['readers']} readers + "
               f"1 writer, {record.metrics['requests_per_s']:,.0f} req/s, "
               f"errors={record.metrics['errors']})"),
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
    scan = bench_partitioned_scan(
        seed=seed, scale=QUICK_SCALE if quick else scale, rounds=rounds
    )
    fold = bench_fold_matrix(
        seed=seed, scale=QUICK_SCALE if quick else scale, rounds=rounds,
    )
    backbone = bench_backbone(rounds=rounds)
    grid = bench_grid(
        seed=seed, scale=0.05 if quick else 0.1, rounds=rounds
    )
    survivability = bench_survivability(
        seed=seed, trials=8 if quick else 24, rounds=rounds
    )
    serve = (
        bench_serve(scale=0.1, readers=4, requests_per_reader=10,
                    writer_jobs=1)
        if quick else bench_serve()
    )
    records = [stream, ingest, scan, fold, backbone, grid,
               survivability, serve]

    print(render_stream_record(stream))
    print()
    print(render_ingest_record(ingest))
    print()
    print(render_partitioned_record(scan))
    print()
    print(render_fold_matrix_record(fold))
    print()
    print(render_backbone_record(backbone))
    print()
    print(render_grid_record(grid))
    print()
    print(render_survivability_record(survivability))
    print()
    print(render_serve_record(serve))
    if out_dir is not None:
        for record in records:
            path = write_record(record, out_dir)
            print(f"\n[perf] wrote {path}")
    return records
