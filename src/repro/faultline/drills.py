"""The ``python -m repro chaos`` drill suite.

Nine drills, each aimed at one hardened failure surface, all driven by
one seed so a failed run replays exactly:

``differential``
    the oracle (:mod:`repro.faultline.oracle`): the planned path — at
    two jobs on the shared pool, then serially over the cache the
    first run wrote — must reproduce the fault-free reference fold
    bit-identically while the cache and shard-worker fault sites fire;
``checkpoint``
    kill a cadenced checkpoint save mid-write, resume from the last
    good snapshot, and demand the resumed aggregates equal an
    uninterrupted run's;
``jsonl``
    tear JSONL lines on the way in and demand the tolerant reader
    account for every line — yielded plus skipped equals total — while
    a strict reader under the identical plan refuses loudly;
``ingest``
    inject transient SQLite errors into the bulk-load path and demand
    bounded-backoff retries land every row — and that unbounded faults
    give up cleanly instead of spinning;
``serve_jobs``
    crash :mod:`repro.serve` job workers and tear the job-queue
    checkpoint, then restart the queue over the same data dir and
    demand every artifact match the fault-free run bit for bit;
``storage``
    delete a partition shard mid-scan (``storage.shard``) and tear the
    manifest mid-save (``storage.manifest``), then demand the typed
    recovery paths — ``restore`` from the source corpus, ``recover``
    rescanning the shards — converge back to the fault-free report
    digest;
``columnar``
    make column-batch folds raise mid-batch (``runtime.fold``) and
    demand the executor fall back to the per-row reference fold —
    suppressed and counted — with the report digest unchanged from
    the fault-free run;
``grid``
    crash what-if grid cells mid-execution (``grid.cell``) and demand
    the grid runner's retry-then-suppress recovery re-run each
    crashed cell from a fresh simulation — counted — with the grid
    summary digest unchanged from the fault-free sweep;
``survivability``
    crash correlated-failure trial sweeps mid-trial
    (``survivability.sweep``) and demand the generator's re-draw
    recovery rebuild each crashed sweep from its seeded RNG —
    counted — with the survivability report digest unchanged from the
    fault-free run.

Every drill's detail reports ``fired_per_site``, and a drill fires
each site it selects at least once.  The suite returns a JSON-able
fault report that is *deterministic in the seed*: no timestamps, no
host paths — two runs with the same seed produce byte-identical
reports, which is itself one of the ``repro.verify`` anchors.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
import tempfile
from pathlib import Path
from typing import List, Optional, Sequence

from repro.faultline import hooks
from repro.faultline.plan import (
    SITES,
    CheckpointKilled,
    FaultPlan,
    FaultSpec,
    FaultToleranceError,
    PartitionLost,
)

__all__ = ["REPORT_FORMAT", "chaos_suite", "report_json"]

REPORT_FORMAT = "repro.faultline-report/1"


def _selected(sites: Optional[Sequence[str]],
              *wanted: str) -> List[str]:
    """The subset of ``wanted`` sites the caller enabled."""
    if sites is None:
        return list(wanted)
    return [site for site in wanted if site in sites]


def _fired_per_site(plans: Sequence[FaultPlan],
                    active: Sequence[str]) -> dict:
    """How often each active site fired, summed over ``plans``."""
    return {site: sum(plan.fired(site) for plan in plans)
            for site in active}


def _differential_drill(seed: int, quick: bool,
                        sites: Optional[Sequence[str]]) -> dict:
    from repro.faultline.oracle import run_differential

    active = _selected(
        sites, "cache.lookup", "cache.store", "executor.shard",
    )
    # Certain fires, capped: the first run's first two shard
    # submissions and first two cache writes fail, the second run's
    # first two disk reads find torn entries.
    plan = FaultPlan(seed, [
        FaultSpec(site, probability=1.0, max_fires=2) for site in active
    ])
    detail: dict = {"sites": active}
    with tempfile.TemporaryDirectory() as tmp:
        try:
            report = run_differential(
                seed=seed,
                scale=0.25,
                plan=plan,
                jobs=2,
                cache_dir=Path(tmp) / "cache",
            )
        except FaultToleranceError as exc:
            detail["error"] = str(exc)
            detail["fault_log"] = plan.summary()["log"]
            return {"name": "differential", "passed": False,
                    "detail": detail}
    detail.update(report.summary())
    detail["fired_per_site"] = _fired_per_site([plan], active)
    return {"name": "differential", "passed": report.identical,
            "detail": detail}


def _checkpoint_drill(seed: int, quick: bool,
                      sites: Optional[Sequence[str]]) -> dict:
    from repro.simulation.scenarios import paper_scenario
    from repro.stream import StreamEngine, live_feed

    scenario = paper_scenario(seed=seed, scale=0.1 if quick else 0.25)
    one_shot = StreamEngine()
    one_shot.run(live_feed(scenario))
    total = one_shot.events_ingested
    cadence = max(1, total // 7)

    active = _selected(sites, "checkpoint.save")
    # skip=1 guarantees one good snapshot exists before a kill can
    # land, so resume always has something to come back to.
    plan = FaultPlan(seed, [
        FaultSpec(site, probability=0.5, max_fires=1, skip=1)
        for site in active
    ])
    crashed = False
    with tempfile.TemporaryDirectory() as tmp:
        snapshot = Path(tmp) / "chaos.ckpt.json"
        engine = StreamEngine(
            checkpoint_path=snapshot, checkpoint_every=cadence,
        )
        with hooks.injected(plan):
            try:
                engine.run(live_feed(scenario))
            except CheckpointKilled:
                crashed = True
            # Recovery: re-attach to the last good snapshot (or start
            # fresh if the kill landed before any publish) and replay;
            # max_fires is spent, so the retry cannot be re-killed.
            resumed = StreamEngine.resume_or_fresh(
                snapshot, checkpoint_every=cadence,
            )
            resumed.run(live_feed(scenario))
    final = resumed.aggregates.digest()
    expected = one_shot.aggregates.digest()
    detail = {
        "sites": active,
        "events": total,
        "checkpoint_every": cadence,
        "faults_fired": plan.fired(),
        "fired_per_site": _fired_per_site([plan], active),
        "crashed": crashed,
        "uninterrupted_digest": expected,
        "resumed_digest": final,
        "fault_log_digest": plan.log_digest(),
    }
    return {"name": "checkpoint", "passed": final == expected,
            "detail": detail}


def _jsonl_drill(seed: int, quick: bool,
                 sites: Optional[Sequence[str]]) -> dict:
    from repro.io import ReadErrors, read_records, write_records
    from repro.simulation.generator import IntraSimulator
    from repro.simulation.scenarios import paper_scenario

    scenario = paper_scenario(seed=seed, scale=0.05)
    active = _selected(sites, "io.jsonl.line")

    def line_plan() -> FaultPlan:
        return FaultPlan(seed, [
            FaultSpec(site, probability=0.1) for site in active
        ])

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "chaos.jsonl"
        with IntraSimulator(scenario).run() as store:
            total = write_records(store.all_reports(), path, "sevs")

        tolerant_plan = line_plan()
        errors = ReadErrors()
        with hooks.injected(tolerant_plan):
            survivors = sum(
                1 for _ in read_records(path, "sevs", strict=False,
                                        errors=errors)
            )

        # The identical plan must fire identically — and a strict read
        # must then refuse at the first torn line.
        strict_raised = False
        if tolerant_plan.fired():
            try:
                with hooks.injected(line_plan()):
                    for _ in read_records(path, "sevs", strict=True):
                        pass
            except ValueError:
                strict_raised = True

    accounted = survivors + errors.skipped == total
    passed = accounted and (strict_raised or not tolerant_plan.fired())
    detail = {
        "sites": active,
        "lines": total,
        "faults_fired": tolerant_plan.fired(),
        "fired_per_site": _fired_per_site([tolerant_plan], active),
        "survivors": survivors,
        "skipped": errors.skipped,
        "accounted": accounted,
        "strict_raised": strict_raised,
        "fault_log_digest": tolerant_plan.log_digest(),
    }
    return {"name": "jsonl", "passed": passed, "detail": detail}


def _ingest_drill(seed: int, quick: bool,
                  sites: Optional[Sequence[str]]) -> dict:
    from repro.incidents.store import SEVStore
    from repro.simulation.generator import iter_scenario_reports
    from repro.simulation.scenarios import paper_scenario

    scenario = paper_scenario(seed=seed, scale=0.05)
    reports = list(iter_scenario_reports(scenario))
    active = _selected(sites, "store.insert")

    # Transient faults: two injected failures, bounded backoff rides
    # them out, every row lands.
    transient = FaultPlan(seed, [
        FaultSpec(site, probability=1.0, max_fires=2) for site in active
    ])
    with hooks.injected(transient), SEVStore() as store:
        loaded = store.bulk_load(reports, batch_size=50)
        recovered = loaded == len(reports) and len(store) == len(reports)

    # Unbounded faults: every attempt fails; the retry loop must give
    # up with the underlying OperationalError, not spin or swallow.
    gave_up = True
    if active:
        hopeless = FaultPlan(seed, [
            FaultSpec(site, probability=1.0) for site in active
        ])
        with hooks.injected(hopeless), SEVStore() as store:
            try:
                store.insert_many(reports[:5])
                gave_up = False
            except sqlite3.OperationalError:
                gave_up = True

    detail = {
        "sites": active,
        "rows": len(reports),
        "faults_fired": transient.fired(),
        "fired_per_site": _fired_per_site([transient], active),
        "recovered": recovered,
        "bounded_retries_give_up": gave_up,
    }
    return {"name": "ingest", "passed": recovered and gave_up,
            "detail": detail}


def _serve_jobs_drill(seed: int, quick: bool,
                      sites: Optional[Sequence[str]]) -> dict:
    """Crash job workers and tear job checkpoints; artifacts must not care.

    A fault-free :class:`~repro.serve.jobs.JobQueue` run fixes the
    expected artifact digests.  The same jobs then run under a plan
    firing ``serve.worker`` (worker crashes mid-job) and
    ``serve.checkpoint`` (the jobs.json write tears); afterwards a
    *fresh* queue is attached to the same data dir — the restart after
    a kill — and must resume whatever the torn checkpoints failed to
    record.  The drill passes when every job ends ``done`` with an
    artifact digest bit-identical to the fault-free run's.
    """
    from repro.serve.jobs import JobQueue

    scale = 0.05 if quick else 0.1
    job_specs = [
        ("report", {"study": "intra", "seed": seed, "scale": scale}),
        ("report", {"study": "intra", "seed": seed + 1, "scale": scale}),
    ]
    active = _selected(sites, "serve.worker", "serve.checkpoint")

    def run_queue(data_dir, start_started=True):
        queue = JobQueue(data_dir, workers=2)
        jobs = [queue.submit(kind, params) for kind, params in job_specs]
        queue.start()
        completed = queue.join(timeout=300)
        queue.stop()
        return queue, jobs, completed

    with tempfile.TemporaryDirectory() as clean_dir, \
            tempfile.TemporaryDirectory() as faulty_dir:
        baseline_queue, baseline_jobs, baseline_done = run_queue(clean_dir)
        expected = [
            baseline_queue.get(job.id).artifact_digest
            for job in baseline_jobs
        ]

        plan = FaultPlan(seed, [
            FaultSpec(site, probability=0.5, max_fires=2) for site in active
        ])
        with hooks.injected(plan):
            _, faulty_jobs, _ = run_queue(faulty_dir)

        # The restart: a fresh queue over the same data dir picks up
        # whatever the torn checkpoints left unrecorded and re-runs it.
        recovery = JobQueue(faulty_dir, workers=2)
        recovery.start()
        recovered = recovery.join(timeout=300)
        recovery.stop()
        final = [recovery.get(job.id) for job in faulty_jobs]
        statuses = [job.status for job in final]
        digests = [job.artifact_digest for job in final]

    matched = digests == expected
    passed = (baseline_done and recovered and matched
              and all(status == "done" for status in statuses))
    detail = {
        "sites": active,
        "jobs": len(job_specs),
        "faults_fired": plan.fired(),
        "fired_per_site": _fired_per_site([plan], active),
        "statuses": statuses,
        "digests_match_fault_free": matched,
        "artifact_digests": expected,
        "fault_log_digest": plan.log_digest(),
    }
    return {"name": "serve_jobs", "passed": passed, "detail": detail}


def _storage_drill(seed: int, quick: bool,
                   sites: Optional[Sequence[str]]) -> dict:
    """Lose a shard, tear the manifest; reports must not change.

    A fault-free partitioned store fixes the expected report
    digest.  Then two recoveries, each from genuine damage:

    * ``storage.shard`` deletes a partition file mid-scan and raises
      :class:`PartitionLost`; ``restore`` re-ingests that partition's
      rows from the source corpus and must reproduce the manifest's
      recorded digest before publishing;
    * ``storage.manifest`` tears the manifest save mid-JSON; reopening
      must refuse with a typed ``ManifestError`` and ``recover`` must
      rebuild the catalog by rescanning the shards.

    After each recovery the full report digest must equal the
    fault-free baseline bit for bit.
    """
    from repro.runtime import RunContext, run_intra_report
    from repro.simulation.generator import IntraSimulator
    from repro.simulation.scenarios import paper_scenario
    from repro.storage import ManifestError, PartitionedSEVStore

    from repro.faultline.oracle import report_digest

    scenario = paper_scenario(seed=seed, scale=0.05)
    with IntraSimulator(scenario).run() as mono:
        reports = list(mono.all_reports())
    active = _selected(sites, "storage.shard", "storage.manifest")

    def digest_of(store) -> str:
        report = run_intra_report(
            RunContext(store=store, fleet=scenario.fleet,
                       corpus_seed=seed),
        )
        return report_digest(report)

    detail: dict = {"sites": active, "rows": len(reports)}
    with tempfile.TemporaryDirectory() as tmp:
        store = PartitionedSEVStore.init(Path(tmp) / "sev")
        store.ingest(reports)
        # Cold partitions participate too: the oldest year compresses.
        store.compact(keep_hot_years=len(store.years()) - 1
                      if len(store.years()) > 1 else 1)
        baseline = digest_of(store)
        detail["partitions"] = len(store.manifest)
        detail["baseline_digest"] = baseline

        # -- shard loss: the file is really deleted mid-scan ---------
        shard_plan = FaultPlan(seed, [
            FaultSpec(site, probability=1.0, max_fires=1)
            for site in _selected(active, "storage.shard")
        ])
        lost_key = None
        crashed = False
        with hooks.injected(shard_plan):
            try:
                digest_of(store)
            except PartitionLost as exc:
                crashed = True
                lost_key = exc.key
                store.restore(exc.key, iter(reports))
        after_restore = digest_of(store)
        shard_converged = after_restore == baseline
        detail["shard"] = {
            "faults_fired": shard_plan.fired(),
            "crashed": crashed,
            "lost_partition": list(lost_key) if lost_key else None,
            "converged": shard_converged,
            "fault_log_digest": shard_plan.log_digest(),
        }

        # -- torn manifest: the save leaves a checksum-failing file --
        manifest_plan = FaultPlan(seed, [
            FaultSpec(site, probability=1.0, max_fires=1)
            for site in _selected(active, "storage.manifest")
        ])
        torn = False
        refused = False
        with hooks.injected(manifest_plan):
            store.manifest.save(store.root)
        if manifest_plan.fired():
            torn = True
            try:
                PartitionedSEVStore.open(store.root)
            except ManifestError:
                refused = True
        recovered = PartitionedSEVStore.recover(store.root)
        after_recover = digest_of(recovered)
        manifest_converged = (
            after_recover == baseline
            and len(recovered) == len(reports)
        )
        detail["manifest"] = {
            "faults_fired": manifest_plan.fired(),
            "torn": torn,
            "typed_refusal": refused,
            "converged": manifest_converged,
            "fault_log_digest": manifest_plan.log_digest(),
        }

    passed = (
        shard_converged
        and manifest_converged
        and (refused or not torn)
        and (crashed or not shard_plan.fired())
    )
    detail["faults_fired"] = shard_plan.fired() + manifest_plan.fired()
    detail["fired_per_site"] = _fired_per_site(
        [shard_plan, manifest_plan], active
    )
    return {"name": "storage", "passed": passed, "detail": detail}


def _columnar_drill(seed: int, quick: bool,
                    sites: Optional[Sequence[str]]) -> dict:
    """Break column-batch folds mid-batch; digests must not move.

    The fault-free per-row reference fold fixes the baseline digest.
    The corpus is then fed to the executor as an explicit record
    source — framed into 32-row column batches, so every analysis
    folds batches instead of taking SQL — under a plan firing
    ``runtime.fold``: each fire makes one ``fold_batch`` raise, which
    must drop that batch to the per-row reference fold, suppressed
    and counted.  The drill passes when the faulted report digest
    equals the baseline and the executor's fallback count equals the
    number of fired faults.
    """
    from repro.faultline.oracle import report_digest
    from repro.runtime import (
        Executor,
        RunContext,
        intra_report_analyses,
        intra_report_from,
        reference_fold,
    )
    from repro.simulation.generator import IntraSimulator
    from repro.simulation.scenarios import paper_scenario

    scenario = paper_scenario(seed=seed, scale=0.05)
    active = _selected(sites, "runtime.fold")
    plan = FaultPlan(seed, [
        FaultSpec(site, probability=1.0, max_fires=2) for site in active
    ])
    executor = Executor(batch_size=32)
    with IntraSimulator(scenario).run() as store:
        context = RunContext(store=store, fleet=scenario.fleet,
                             corpus_seed=seed)
        baseline = report_digest(intra_report_from(
            reference_fold(intra_report_analyses(), context)
        ))
        with hooks.injected(plan):
            faulted = report_digest(intra_report_from(executor.run(
                intra_report_analyses(), context,
                source=store.all_reports(),
            )))
        rows = len(store)

    converged = faulted == baseline
    accounted = executor.columnar_fallbacks == plan.fired()
    detail = {
        "sites": active,
        "rows": rows,
        "faults_fired": plan.fired(),
        "fired_per_site": _fired_per_site([plan], active),
        "fallbacks": executor.columnar_fallbacks,
        "fallbacks_match_fires": accounted,
        "baseline_digest": baseline,
        "faulted_digest": faulted,
        "converged": converged,
        "fault_log_digest": plan.log_digest(),
    }
    return {"name": "columnar", "passed": converged and accounted,
            "detail": detail}


def _grid_drill(seed: int, quick: bool,
                sites: Optional[Sequence[str]]) -> dict:
    """Crash grid cells; the summary digest must not move.

    A fault-free sweep of a tiny lattice fixes the summary digest.
    The same lattice then re-runs under a plan firing ``grid.cell``
    with certainty twice: the first cell crashes, is retried, crashes
    again, and finally re-runs with the site suppressed — exercising
    both halves of the recovery contract.  The drill passes when the
    faulted sweep's summary digest equals the fault-free baseline and
    the runner's retry count equals the number of fired faults.
    """
    from repro.scenarios import GridRunner, GridSpec, preset

    active = _selected(sites, "grid.cell")
    base = preset("paper").with_updates(seed=seed, scale=0.05)
    grid = GridSpec(base=base, axes={"fabric_year": [2015, 2016]})

    baseline = GridRunner().run(grid)

    plan = FaultPlan(seed, [
        FaultSpec(site, probability=1.0, max_fires=2) for site in active
    ])
    runner = GridRunner()
    with hooks.injected(plan):
        faulted = runner.run(grid)

    converged = (faulted["summary_digest"] == baseline["summary_digest"])
    accounted = runner.cell_retries == plan.fired()
    detail = {
        "sites": active,
        "cells": grid.cell_count(),
        "faults_fired": plan.fired(),
        "fired_per_site": _fired_per_site([plan], active),
        "cell_retries": runner.cell_retries,
        "retries_match_fires": accounted,
        "baseline_digest": baseline["summary_digest"],
        "faulted_digest": faulted["summary_digest"],
        "converged": converged,
        "fault_log_digest": plan.log_digest(),
    }
    return {"name": "grid", "passed": converged and accounted,
            "detail": detail}


def _survivability_drill(seed: int, quick: bool,
                         sites: Optional[Sequence[str]]) -> dict:
    """Crash survivability sweeps; the report digest must not move.

    A fault-free run over a reduced trial corpus fixes the report
    digest.  The same corpus then regenerates under a plan firing
    ``survivability.sweep`` with certainty twice: each design's sweep
    crashes mid-trial and is retried with the site suppressed.  The
    drill passes when the faulted corpus's report digest equals the
    fault-free baseline and the generator's retry count equals the
    number of fired faults — a crashed sweep is re-drawn from the same
    seeded RNG, never resumed from a half-built trial.
    """
    from repro.faultline.oracle import report_digest
    from repro.runtime import RunContext
    from repro.survivability import generate_trials, run_survivability_report

    active = _selected(sites, "survivability.sweep")
    knobs = {"trials": 4 if quick else 8}

    def run(trials):
        context = RunContext(trials=trials, corpus_seed=seed)
        return report_digest(
            run_survivability_report(context)
        )

    baseline_trials = generate_trials(seed=seed, correlated=knobs)
    baseline = run(baseline_trials)

    plan = FaultPlan(seed, [
        FaultSpec(site, probability=1.0, max_fires=2) for site in active
    ])
    with hooks.injected(plan):
        faulted_trials = generate_trials(seed=seed, correlated=knobs)
    faulted = run(faulted_trials)

    converged = faulted == baseline
    accounted = faulted_trials.retries == plan.fired()
    detail = {
        "sites": active,
        "rows": len(faulted_trials),
        "faults_fired": plan.fired(),
        "fired_per_site": _fired_per_site([plan], active),
        "sweep_retries": faulted_trials.retries,
        "retries_match_fires": accounted,
        "baseline_digest": baseline,
        "faulted_digest": faulted,
        "converged": converged,
        "fault_log_digest": plan.log_digest(),
    }
    return {"name": "survivability", "passed": converged and accounted,
            "detail": detail}


def chaos_suite(
    seed: int = 7,
    quick: bool = False,
    sites: Optional[Sequence[str]] = None,
) -> dict:
    """Run every drill; returns the (deterministic) fault report."""
    if sites is not None:
        unknown = sorted(set(sites) - set(SITES))
        if unknown:
            raise ValueError(
                f"unknown fault sites {unknown}; expected among {SITES}"
            )
    drills = [
        _differential_drill(seed, quick, sites),
        _checkpoint_drill(seed, quick, sites),
        _jsonl_drill(seed, quick, sites),
        _ingest_drill(seed, quick, sites),
        _serve_jobs_drill(seed, quick, sites),
        _storage_drill(seed, quick, sites),
        _columnar_drill(seed, quick, sites),
        _grid_drill(seed, quick, sites),
        _survivability_drill(seed, quick, sites),
    ]
    report = {
        "format": REPORT_FORMAT,
        "seed": seed,
        "quick": quick,
        "sites": list(sites) if sites is not None else list(SITES),
        "drills": drills,
        "passed": all(d["passed"] for d in drills),
    }
    report["report_digest"] = hashlib.sha256(
        json.dumps(report, sort_keys=True).encode()
    ).hexdigest()
    return report


def report_json(report: dict) -> str:
    """The canonical serialization of a fault report."""
    return json.dumps(report, indent=1, sort_keys=True)
