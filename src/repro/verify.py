"""One-shot reproduction verification.

Runs both pipelines and checks every headline anchor against the
published value, printing a PASS/FAIL line per artifact.  This is the
``python -m repro verify`` implementation — the quickest way to confirm a
checkout still reproduces the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro import paperdata
from repro.backbone.monitor import BackboneMonitor
from repro.incidents.sev import RootCause, Severity
from repro.simulation.backbone_sim import BackboneSimulator
from repro.simulation.generator import IntraSimulator
from repro.simulation.scenarios import paper_backbone_scenario, paper_scenario
from repro.topology.devices import DeviceType


@dataclass(frozen=True)
class Check:
    """One verified anchor."""

    artifact: str
    claim: str
    paper: float
    measured: float
    tolerance: float
    relative: bool = True

    @property
    def passed(self) -> bool:
        if self.relative:
            if self.paper == 0:
                return self.measured == 0
            return abs(self.measured - self.paper) <= (
                self.tolerance * abs(self.paper)
            )
        return abs(self.measured - self.paper) <= self.tolerance

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"[{status}] {self.artifact:<8} {self.claim:<46} "
                f"paper={self.paper:<12.4g} measured={self.measured:.4g}")


def run_verification(seed: int = 1, backbone_seed: int = 7) -> List[Check]:
    """Generate fresh corpora and evaluate every anchor.

    The anchors of each study are read off one :class:`repro.runtime`
    report — every analysis answered by one executor run — so
    ``verify`` also exercises the unified execution layer end to end.
    """
    from repro.runtime import RunContext, run_backbone_report, run_intra_report

    checks: List[Check] = []

    scenario = paper_scenario(seed=seed)
    store = IntraSimulator(scenario).run()
    fleet = scenario.fleet
    report = run_intra_report(
        RunContext(store=store, fleet=fleet, corpus_seed=scenario.seed),
    )

    t2 = report.root_causes.distribution()
    for cause_name, share in paperdata.ROOT_CAUSE_DISTRIBUTION.items():
        checks.append(Check(
            "Table 2", f"{cause_name} share", share,
            t2[RootCause(cause_name)], 0.02, relative=False,
        ))

    rates = report.rates
    for year, rate in paperdata.CSA_INCIDENT_RATE.items():
        checks.append(Check(
            "Fig 3", f"CSA incident rate {year}", rate,
            rates.rate(year, DeviceType.CSA), 0.05,
        ))

    fig4 = report.severity
    for sev_name, share in paperdata.SEVERITY_MIX_2017.items():
        severity = Severity[sev_name.upper()]
        checks.append(Check(
            "Fig 4", f"2017 {sev_name} share", share,
            fig4.level_share(severity), 0.02, relative=False,
        ))

    checks.append(Check(
        "Fig 5", "per-device rate inflection year",
        paperdata.FABRIC_DEPLOYMENT_YEAR,
        report.severity_over_time.inflection_year(),
        0.0, relative=False,
    ))
    checks.append(Check(
        "Fig 8", "SEV growth 2011-2017",
        paperdata.SEV_GROWTH_2011_TO_2017,
        report.growth, 0.03,
    ))

    checks.append(Check(
        "Fig 9", "fabric/cluster incidents 2017",
        paperdata.FABRIC_TO_CLUSTER_INCIDENTS_2017,
        report.designs.fabric_to_cluster_ratio(2017), 0.06, relative=False,
    ))

    sr = report.switches
    checks.append(Check(
        "Fig 12", "Core MTBI 2017 (h)",
        paperdata.MTBI_2017_HOURS["core"],
        sr.mtbi(2017, DeviceType.CORE), 0.03,
    ))
    checks.append(Check(
        "Fig 12", "RSW MTBI 2017 (h)",
        paperdata.MTBI_2017_HOURS["rsw"],
        sr.mtbi(2017, DeviceType.RSW), 0.03,
    ))
    checks.append(Check(
        "Fig 12", "fabric MTBI advantage",
        paperdata.FABRIC_MTBI_ADVANTAGE,
        sr.fabric_advantage(2017), 0.06,
    ))

    corpus = BackboneSimulator(
        paper_backbone_scenario(seed=backbone_seed)
    ).run()
    rel = run_backbone_report(RunContext(
        tickets=corpus.tickets, topology=corpus.topology,
        window_h=corpus.window_h, corpus_seed=backbone_seed,
    )).reliability
    checks.append(Check(
        "Fig 15", "edge MTBF p50 (h)", paperdata.EDGE_MTBF_P50_H,
        rel.edge_mtbf.p50, 0.15,
    ))
    checks.append(Check(
        "Fig 15", "edge MTBF model slope b",
        paperdata.EDGE_MTBF_MODEL["b"], rel.edge_mtbf_model().b, 0.15,
    ))
    checks.append(Check(
        "Fig 16", "edge MTTR p50 (h)", paperdata.EDGE_MTTR_P50_H,
        rel.edge_mttr.p50, 0.35,
    ))
    checks.append(Check(
        "Fig 16", "edge MTTR model slope b",
        paperdata.EDGE_MTTR_MODEL["b"], rel.edge_mttr_model().b, 0.15,
    ))
    checks.append(Check(
        "Fig 18", "vendor MTTR p50 (h)", paperdata.VENDOR_MTTR_P50_H,
        rel.vendor_mttr.p50, 0.4,
    ))

    checks.extend(stream_smoke_checks(seed=seed))
    checks.extend(runtime_equivalence_checks(seed=seed))
    checks.extend(backbone_runtime_checks(backbone_seed=backbone_seed))
    checks.extend(faultline_checks(seed=seed))
    checks.extend(serve_checks(seed=seed, backbone_seed=backbone_seed))
    checks.extend(storage_checks(seed=seed, backbone_seed=backbone_seed))
    checks.extend(scenario_grid_checks(seed=seed))
    checks.extend(survivability_checks(seed=seed))
    return checks


def _plan_agrees(analyses, context, assemble, reference,
                 batch_size: int = 64) -> bool:
    """Whether the plan at ``jobs`` 1 and 2 reproduces ``reference``.

    ``batch_size``-row column batches make the ``jobs=2`` run really
    ship shards to the pool wherever the plan folds batches.
    """
    from repro.runtime import Executor

    return all(
        assemble(Executor(jobs=jobs, batch_size=batch_size).run(
            analyses(), context
        )) == reference
        for jobs in (1, 2)
    )


def survivability_checks(seed: int = 1) -> List[Check]:
    """Exercise the correlated-failure model (:mod:`repro.survivability`).

    Three invariants, all exact: the correlated failure order at
    all-default knobs degrades to the independent shuffle bit for bit
    (over three seeds — the property the whole knob family is anchored
    to); every survivability curve is monotone non-increasing in the
    failed fraction (trials share nested failure prefixes, so more
    failure can never help); and the plan at one and two jobs answers
    the survivability study exactly as the per-row reference fold.
    """
    import random

    from repro.runtime import RunContext, reference_fold
    from repro.simulation.failures import independent_failure_order
    from repro.survivability import (
        correlated_failure_order,
        generate_trials,
        run_survivability_report,
        survivability_report_analyses,
        survivability_report_from,
    )

    checks: List[Check] = []

    devices = [f"rsw.{i:03d}" for i in range(40)] + ["core.001", "csw.007"]
    degrades = all(
        correlated_failure_order(devices, random.Random(s))
        == independent_failure_order(devices, random.Random(s))
        for s in (seed, seed + 6, seed + 12)
    )
    checks.append(Check(
        "Surv", "correlated order degrades to independent", 1.0,
        float(degrades), 0.0, relative=False,
    ))

    trials = generate_trials(seed=seed, correlated={"trials": 8})
    context = RunContext(trials=trials, corpus_seed=seed)
    report = run_survivability_report(context)
    monotone = all(
        all(
            earlier.value >= later.value
            for earlier, later in zip(curve.points, curve.points[1:])
        )
        for family in (report.connectivity, report.capacity)
        for curve in family.curves
    )
    checks.append(Check(
        "Surv", "survivability curves monotone non-increasing", 1.0,
        float(monotone), 0.0, relative=False,
    ))

    reference = survivability_report_from(
        reference_fold(survivability_report_analyses(), context)
    )
    agree = _plan_agrees(survivability_report_analyses, context,
                         survivability_report_from, reference)
    checks.append(Check(
        "Surv", "survivability plan at 1/2 jobs equals reference", 1.0,
        float(agree), 0.0, relative=False,
    ))
    return checks


def scenario_grid_checks(seed: int = 1, scale: float = 0.25) -> List[Check]:
    """Exercise the scenario-spec and grid layer (:mod:`repro.scenarios`).

    Three invariants, all exact: materializing the shipped presets
    reproduces the legacy scenario constructors field for field (the
    declarative layer is a pure re-expression, not a fork); a grid
    cell's ``report_digest`` equals a standalone runtime run of the
    same spec (grids add orchestration, never content); and a warm
    re-run of the grid is 100% cell-cache hits with an identical
    ``summary_digest``.
    """
    from repro.faultline.oracle import report_digest
    from repro.runtime import ResultCache, RunContext, run_intra_report
    from repro.scenarios import GridRunner, GridSpec, preset
    from repro.simulation.scenarios import (
        apply_no_drain_policy,
        build_paper_intra,
        shift_fabric_rollout,
    )

    checks: List[Check] = []

    legacy_paper = build_paper_intra(seed=seed)
    legacy_no_drain = apply_no_drain_policy(build_paper_intra(seed=seed))
    legacy_shifted = shift_fabric_rollout(build_paper_intra(seed=seed), 2016)
    presets_match = (
        preset("paper").with_updates(seed=seed).materialize() == legacy_paper
        and preset("no_drain_policy").with_updates(seed=seed).materialize()
        == legacy_no_drain
        and preset("shifted_fabric").with_updates(seed=seed).materialize()
        == legacy_shifted
    )
    checks.append(Check(
        "Grid", "preset materialization equals legacy scenarios", 1.0,
        float(presets_match), 0.0, relative=False,
    ))

    base = preset("paper").with_updates(seed=seed, scale=scale)
    grid = GridSpec(base=base, axes={"fabric_year": [2015, 2016]})
    cache = ResultCache()
    runner = GridRunner(cache=cache)
    report = runner.run(grid)

    cell_spec = base.with_updates(fabric_year=2016)
    scenario = cell_spec.materialize()
    standalone = report_digest(run_intra_report(
        RunContext(
            store=IntraSimulator(scenario).run(), fleet=scenario.fleet,
            corpus_seed=scenario.seed,
            scenario_digest=scenario.spec_digest,
        ),
    ))
    by_digest = {
        cell["spec_digest"]: cell["report_digest"]
        for cell in report["cells"]
    }
    checks.append(Check(
        "Grid", "grid cell digest equals standalone run", 1.0,
        float(by_digest.get(cell_spec.digest()) == standalone),
        0.0, relative=False,
    ))

    rerun_runner = GridRunner(cache=cache)
    rerun = rerun_runner.run(grid)
    checks.append(Check(
        "Grid", "warm grid re-run all cache hits, same digest", 1.0,
        float(
            rerun_runner.cell_hits == grid.cell_count()
            and rerun_runner.cell_misses == 0
            and rerun["summary_digest"] == report["summary_digest"]
        ),
        0.0, relative=False,
    ))
    return checks


def storage_checks(seed: int = 1, backbone_seed: int = 7,
                   scale: float = 0.25) -> List[Check]:
    """Exercise the tiered storage layer (:mod:`repro.storage`).

    Three invariants, all exact: a partitioned store holding the same
    rows fingerprints identically to the monolithic store (cache keys
    survive the layout change); the plan over the partitioned SEV
    store — with part of its history demoted to the gzip cold tier —
    reproduces the per-row reference report over the monolithic store
    bit for bit at one and two jobs; and the partitioned ticket store
    does the same for the backbone report.
    """
    import tempfile
    from pathlib import Path

    from repro.runtime import (
        RunContext,
        backbone_report_analyses,
        backbone_report_from,
        intra_report_analyses,
        intra_report_from,
        reference_fold,
    )
    from repro.runtime.cache import corpus_fingerprint
    from repro.storage import PartitionedSEVStore, PartitionedTicketStore

    scenario = paper_scenario(seed=seed, scale=scale)
    mono = IntraSimulator(scenario).run()
    reference = intra_report_from(reference_fold(
        intra_report_analyses(),
        RunContext(store=mono, fleet=scenario.fleet, corpus_seed=seed),
    ))
    with tempfile.TemporaryDirectory() as tmp:
        store = PartitionedSEVStore.init(Path(tmp) / "sev")
        store.ingest(mono.all_reports())
        years = store.years()
        if len(years) > 1:
            store.compact(keep_hot_years=max(1, len(years) // 2))
        same_key = (len(store) == len(mono)
                    and corpus_fingerprint(store, seed)
                    == corpus_fingerprint(mono, seed))
        sev_agree = _plan_agrees(
            intra_report_analyses,
            RunContext(store=store, fleet=scenario.fleet, corpus_seed=seed),
            intra_report_from, reference,
        )

    corpus = BackboneSimulator(
        paper_backbone_scenario(seed=backbone_seed)
    ).run()

    def assemble(results):
        return backbone_report_from(results, corpus.window_h)

    base = assemble(reference_fold(
        backbone_report_analyses(),
        RunContext(
            tickets=corpus.tickets,
            topology=corpus.topology, window_h=corpus.window_h,
            corpus_seed=backbone_seed,
        ),
    ))
    with tempfile.TemporaryDirectory() as tmp:
        tickets = PartitionedTicketStore.init(Path(tmp) / "tickets")
        tickets.ingest(corpus.tickets.completed())
        if len(tickets.years()) > 1:
            tickets.compact(keep_hot_years=1)
        context = RunContext(
            topology=corpus.topology, window_h=corpus.window_h,
            corpus_seed=backbone_seed, tickets=tickets,
        )
        ticket_agree = _plan_agrees(backbone_report_analyses, context,
                                    assemble, base, batch_size=256)
    return [
        Check("Storage", "partitioned fingerprint equals monolithic", 1.0,
              float(same_key), 0.0, relative=False),
        Check("Storage", "plan over partitions equals monolithic", 1.0,
              float(sev_agree), 0.0, relative=False),
        Check("Storage", "partitioned tickets equal backbone report", 1.0,
              float(ticket_agree), 0.0, relative=False),
    ]


def runtime_equivalence_checks(seed: int = 1,
                               scale: float = 0.25) -> List[Check]:
    """Exercise the unified execution layer (:mod:`repro.runtime`).

    Six invariants, all exact at this scale: the plan (SQL over the
    monolithic store) reproduces the per-row reference fold bit for
    bit and agrees with the :mod:`repro.core` finalizers over the
    paper's SQL queries (:class:`~repro.incidents.query.SEVQuery`);
    the store's rows framed as column batches reproduce it too, folded
    serially and as shards on the shared worker pool; a cached re-run
    returns the identical report without touching the corpus; and the
    cache a one-job run warmed answers a two-job run entirely, because
    how a result was gathered is not part of its key.
    """
    from repro.core import (
        RootCauseBreakdown,
        SeverityByDevice,
        rates_from_counts,
        severity_rates_from_counts,
    )
    from repro.incidents.query import SEVQuery
    from repro.runtime import (
        Executor,
        ResultCache,
        RunContext,
        intra_report_analyses,
        intra_report_from,
        reference_fold,
        run_intra_report,
    )

    scenario = paper_scenario(seed=seed, scale=scale)
    store = IntraSimulator(scenario).run()
    context = RunContext(
        store=store, fleet=scenario.fleet, corpus_seed=scenario.seed
    )
    planned = run_intra_report(context)
    reference = intra_report_from(
        reference_fold(intra_report_analyses(), context)
    )
    query = SEVQuery(store)
    core_sql = (
        planned.root_causes
        == RootCauseBreakdown(query.count_by_root_cause())
        and planned.rates
        == rates_from_counts(query.count_by_year_and_type(), scenario.fleet)
        and planned.severity == SeverityByDevice(
            query.count_by_severity_and_type(planned.last_year),
            planned.last_year,
        )
        and planned.severity_over_time == severity_rates_from_counts(
            query.count_by_year_and_severity(), scenario.fleet
        )
    )

    def batched(jobs: int):
        return intra_report_from(Executor(jobs=jobs, batch_size=64).run(
            intra_report_analyses(), context, source=store.all_reports()
        ))

    cache = ResultCache()
    first = run_intra_report(context, cache=cache)
    second = run_intra_report(context, cache=cache)
    all_hits = cache.hits == cache.misses and cache.hits > 0
    pooled = run_intra_report(context, cache=cache, jobs=2)
    shared = cache.hits == 2 * cache.misses
    return [
        Check("Runtime", "planned report equals per-row reference", 1.0,
              float(planned == reference), 0.0, relative=False),
        Check("Runtime", "planned report equals core SQL queries", 1.0,
              float(core_sql), 0.0, relative=False),
        Check("Columnar", "column batches equal reference report", 1.0,
              float(batched(1) == reference), 0.0, relative=False),
        Check("Columnar", "pooled column shards equal reference", 1.0,
              float(batched(2) == reference), 0.0, relative=False),
        Check("Runtime", "cached re-run identical, zero recomputation",
              1.0, float(first == second == planned and all_hits),
              0.0, relative=False),
        Check("Runtime", "one cache entry serves 1 and 2 jobs", 1.0,
              float(pooled == planned and shared), 0.0, relative=False),
    ]


def backbone_runtime_checks(backbone_seed: int = 7) -> List[Check]:
    """The plan over the ticket-domain analyses.

    The domain-generic runtime must answer the section 6 artifacts
    identically however it executes: the serial column-batch plan and
    its pooled shards both reproduce the per-row reference fold, the
    :mod:`repro.core` finalizers over the monitor's own outage views
    agree with the plan, and a cached re-run returns the identical
    report bit for bit.
    """
    from repro.backbone.scorecards import scorecards_from_outages
    from repro.core import (
        continent_rows_from_failures,
        reliability_from_outages,
    )
    from repro.runtime import (
        Executor,
        ResultCache,
        RunContext,
        backbone_report_analyses,
        backbone_report_from,
        reference_fold,
        run_backbone_report,
    )

    corpus = BackboneSimulator(
        paper_backbone_scenario(seed=backbone_seed)
    ).run()
    monitor, window = (BackboneMonitor(corpus.topology, corpus.tickets),
                       corpus.window_h)
    context = RunContext(
        tickets=corpus.tickets, topology=corpus.topology,
        window_h=window, corpus_seed=backbone_seed,
    )
    analyses = backbone_report_analyses
    reference = backbone_report_from(
        reference_fold(analyses(), context), window
    )
    planned = run_backbone_report(context)
    pooled = backbone_report_from(
        Executor(jobs=2, batch_size=256).run(analyses(), context), window
    )
    failures = monitor.failures_by_edge()
    outages = monitor.outages_by_vendor()
    monitor_queries = (
        planned.reliability
        == reliability_from_outages(failures, outages, window)
        and planned.continents
        == continent_rows_from_failures(failures, corpus.topology, window)
        and planned.vendors == scorecards_from_outages(outages, window)
    )
    cache = ResultCache()
    first = run_backbone_report(context, cache=cache)
    second = run_backbone_report(context, cache=cache)
    all_hits = cache.hits == cache.misses and cache.hits > 0
    return [
        Check("Backbone", "planned report equals per-row reference", 1.0,
              float(planned == reference), 0.0, relative=False),
        Check("Backbone", "monitor queries equal planned report", 1.0,
              float(monitor_queries), 0.0, relative=False),
        Check("Backbone", "pooled column shards equal reference", 1.0,
              float(pooled == reference), 0.0, relative=False),
        Check("Backbone", "cached re-run identical, zero recomputation",
              1.0, float(first == second == reference and all_hits),
              0.0, relative=False),
    ]


def stream_smoke_checks(seed: int = 1, scale: float = 0.25) -> List[Check]:
    """Exercise the streaming runtime (:mod:`repro.stream`).

    Three invariants, all exact: a checkpoint written mid-stream and
    resumed must finish with the same aggregates as an uninterrupted
    run; a sharded generation must merge to the 1-worker result; and
    the intra report the runtime analyses finalize over the streamed
    state must digest like the planned report over the same corpus.
    """
    import tempfile
    from pathlib import Path

    from repro.faultline.oracle import report_digest
    from repro.incidents.store import SEVStore
    from repro.runtime import (
        RunContext,
        intra_report_analyses,
        intra_report_from,
        run_intra_report,
    )
    from repro.simulation.generator import iter_scenario_reports
    from repro.stream import (
        StreamEngine,
        finalize_analyses,
        generate_aggregates,
        live_feed,
    )

    checks: List[Check] = []
    scenario = paper_scenario(seed=seed, scale=scale)

    one_shot = StreamEngine()
    one_shot.run(live_feed(scenario))
    total = one_shot.events_ingested

    with tempfile.TemporaryDirectory() as tmp:
        snapshot = Path(tmp) / "stream.ckpt.json"
        first_half = StreamEngine(checkpoint_path=snapshot)
        first_half.run(live_feed(scenario), limit=total // 2)
        resumed = StreamEngine.resume(snapshot)
        resumed.run(live_feed(scenario))
    checks.append(Check(
        "Stream", "checkpoint->resume equals one-shot run", 1.0,
        float(resumed.aggregates.digest() == one_shot.aggregates.digest()),
        0.0, relative=False,
    ))

    sharded = generate_aggregates(scenario, jobs=4, use_processes=False)
    checks.append(Check(
        "Stream", "4-shard merge equals 1-worker run", 1.0,
        float(sharded.digest()
              == generate_aggregates(scenario, jobs=1).digest()),
        0.0, relative=False,
    ))

    store = SEVStore()
    store.insert_many(iter_scenario_reports(scenario))
    context = RunContext(store=store, fleet=scenario.fleet)
    streamed = intra_report_from(finalize_analyses(
        one_shot.aggregates, intra_report_analyses(), context
    ))
    reports_match = (
        len(store) == one_shot.aggregates.events
        and report_digest(streamed)
        == report_digest(run_intra_report(context))
    )
    checks.append(Check(
        "Stream", "streamed report equals batch report", 1.0,
        float(reports_match), 0.0, relative=False,
    ))
    return checks


def faultline_checks(seed: int = 1) -> List[Check]:
    """Exercise the fault-injection layer (:mod:`repro.faultline`).

    Three invariants: the chaos drill suite is deterministic in its
    seed (two runs produce byte-identical fault reports — same fault
    logs, same digests); the plan reproduces the fault-free reference
    report bit-identically while cache and shard-worker faults fire;
    and a corrupt on-disk cache entry is recovered as a counted miss,
    never an error or a wrong answer.
    """
    import tempfile
    from pathlib import Path

    from repro.faultline import FaultPlan, FaultSpec
    from repro.faultline.drills import chaos_suite, report_json
    from repro.faultline.oracle import run_differential
    from repro.runtime import ResultCache

    checks: List[Check] = []

    first = chaos_suite(seed=seed, quick=True)
    second = chaos_suite(seed=seed, quick=True)
    checks.append(Check(
        "Faultline", "chaos suite deterministic across runs", 1.0,
        float(report_json(first) == report_json(second) and first["passed"]),
        0.0, relative=False,
    ))

    plan = FaultPlan(seed, [
        FaultSpec("cache.lookup", probability=0.5, max_fires=4),
        FaultSpec("cache.store", probability=0.5, max_fires=4),
        FaultSpec("executor.shard", probability=0.5, max_fires=4),
    ])
    with tempfile.TemporaryDirectory() as tmp:
        oracle = run_differential(
            seed=seed, scale=0.25, plan=plan,
            cache_dir=Path(tmp) / "cache",
        )
    checks.append(Check(
        "Faultline", "plan identical to reference under faults", 1.0,
        float(oracle.identical), 0.0, relative=False,
    ))

    with tempfile.TemporaryDirectory() as tmp:
        writer = ResultCache(tmp)
        writer.store("anchor-key", {"value": 42})
        (entry,) = Path(tmp).glob("*.pkl")
        entry.write_bytes(entry.read_bytes()[:10])
        import warnings

        reader = ResultCache(tmp)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            hit, _ = reader.lookup("anchor-key")
        reader.store("anchor-key", {"value": 42})
        rehit, value = ResultCache(tmp).lookup("anchor-key")
    checks.append(Check(
        "Faultline", "corrupt cache entry recovered as miss", 1.0,
        float(not hit and reader.misses == 1 and rehit
              and value == {"value": 42}),
        0.0, relative=False,
    ))
    return checks


def serve_checks(seed: int = 1, backbone_seed: int = 7,
                 scale: float = 0.25) -> List[Check]:
    """Exercise the serving layer (:mod:`repro.serve`).

    Three invariants: the intra report served over the in-process API
    carries the same canonical ``report_digest`` as a direct runtime
    run over the same corpus+seed (what the CLI's ``--digest`` flag
    prints); the backbone endpoint likewise; and two independent job
    queues given the identical report job produce bit-identical
    artifact digests — the determinism that makes kill/resume safe.
    """
    import tempfile

    from repro.faultline.oracle import report_digest
    from repro.runtime import (
        build_backbone_context,
        build_intra_context,
        run_backbone_report,
        run_intra_report,
    )
    from repro.serve import JobQueue, ServeApp

    checks: List[Check] = []

    with ServeApp(seed=seed, scale=scale, backbone_seed=backbone_seed,
                  prewarm=False) as app:
        _, intra = app.handle("GET", "/reports/intra")
        _, backbone = app.handle("GET", "/reports/backbone")
    direct_intra = report_digest(run_intra_report(
        build_intra_context(seed=seed, scale=scale),
    ))
    direct_backbone = report_digest(run_backbone_report(
        build_backbone_context(seed=backbone_seed),
    ))
    checks.append(Check(
        "Serve", "intra endpoint digest equals CLI digest", 1.0,
        float(intra["report_digest"] == direct_intra),
        0.0, relative=False,
    ))
    checks.append(Check(
        "Serve", "backbone endpoint digest equals CLI digest", 1.0,
        float(backbone["report_digest"] == direct_backbone),
        0.0, relative=False,
    ))

    params = {"study": "intra", "seed": seed, "scale": 0.1}
    digests = []
    for _ in range(2):
        with tempfile.TemporaryDirectory() as tmp:
            queue = JobQueue(tmp, workers=1)
            queue.start()
            job = queue.submit("report", params)
            queue.join(timeout=300)
            queue.stop()
            digests.append(queue.get(job.id).artifact_digest)
    checks.append(Check(
        "Serve", "job artifact digest deterministic per seed", 1.0,
        float(digests[0] is not None and digests[0] == digests[1]),
        0.0, relative=False,
    ))
    return checks


def render_verification(checks: List[Check]) -> str:
    lines = [c.line() for c in checks]
    passed = sum(c.passed for c in checks)
    lines.append(f"\n{passed}/{len(checks)} anchors reproduced")
    return "\n".join(lines)
