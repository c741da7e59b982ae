"""Streaming-versus-batch parity (the repro.stream guarantee).

One pass of :class:`repro.stream.StreamAggregates` over a corpus holds
the fold states the executor builds over the same corpus loaded into
a :class:`~repro.incidents.store.SEVStore`, so the intra analyses
finalized over the stream (:func:`repro.stream.finalize_analyses`)
reproduce the batch report exactly: the same ``report_digest`` as the
SQL plan and as the per-row reference fold.  The streamed
resolution-time percentiles also stay within the sketch error bound of
the exact order statistics (Figure 13).  Checked across several seeds,
plus the merge laws that make sharded generation deterministic and
the checkpoint state pinned at three seeds.
"""

import itertools

import pytest

from repro.faultline.oracle import report_digest
from repro.incidents.query import SEVQuery
from repro.incidents.store import SEVStore
from repro.runtime import (
    Executor,
    RunContext,
    intra_report_analyses,
    intra_report_from,
    reference_fold,
)
from repro.simulation.generator import iter_scenario_reports, scenario_cells
from repro.simulation.scenarios import paper_scenario
from repro.stats.mttr import percentile
from repro.stream import (
    StreamAggregates,
    StreamEngine,
    aggregate_cells,
    finalize_analyses,
    generate_aggregates,
    live_feed,
    shard_cells,
)

SEEDS = [3, 11, 42]
SCALE = 0.25


def build_pair(seed):
    """The same corpus twice: streamed aggregates and a batch store."""
    scenario = paper_scenario(seed=seed, scale=SCALE)
    streamed = StreamAggregates()
    streamed.ingest_many(iter_scenario_reports(scenario))
    store = SEVStore()
    store.insert_many(iter_scenario_reports(scenario))
    return scenario, streamed, store


@pytest.fixture(scope="module", params=SEEDS)
def corpus(request):
    return build_pair(request.param)


@pytest.fixture(scope="module")
def reports(corpus):
    """(streamed, batch) intra reports over the same corpus; the batch
    report is the executor's SQL plan over the store."""
    scenario, streamed, store = corpus
    context = RunContext(store=store, fleet=scenario.fleet)
    return (
        intra_report_from(finalize_analyses(
            streamed, intra_report_analyses(), context
        )),
        intra_report_from(Executor().run(intra_report_analyses(), context)),
    )


class TestReportParity:
    def test_streamed_report_digest_equals_sql_and_reference(
            self, corpus, reports):
        # The structural guarantee: the stream's states, finalized by
        # the analyses report intra runs, are the executor's states.
        scenario, _, store = corpus
        reference = intra_report_from(reference_fold(
            intra_report_analyses(),
            RunContext(store=store, fleet=scenario.fleet),
        ))
        streamed, sql = (report_digest(report) for report in reports)
        assert streamed == sql == report_digest(reference)


class TestCountParity:
    """Each artifact of the streamed report equals the batch one."""

    def test_event_totals(self, corpus):
        _, streamed, store = corpus
        assert streamed.events == len(store)
        per_year = {}
        for report in store.all_reports():
            per_year[report.opened_year] = (
                per_year.get(report.opened_year, 0) + 1
            )
        assert streamed.year_type.yearly_totals == per_year

    def test_root_causes_exact(self, reports):
        streamed, batch = reports
        assert streamed.root_causes == batch.root_causes

    def test_incident_distribution_exact(self, reports):
        streamed, batch = reports
        assert streamed.distribution == batch.distribution

    def test_growth_exact(self, reports):
        streamed, batch = reports
        assert streamed.growth == batch.growth

    def test_incident_rates_exact(self, reports):
        streamed, batch = reports
        assert streamed.rates == batch.rates

    def test_mtbi_exact(self, reports):
        streamed, batch = reports
        assert streamed.switches.mtbi_h == batch.switches.mtbi_h

    def test_severity_shares_exact(self, reports):
        streamed, batch = reports
        assert streamed.severity == batch.severity
        assert streamed.severity_over_time == batch.severity_over_time


class TestPercentileParity:
    """Figure 13 streamed: the finalized p75 IRT is a sketch quantile,
    within 2% of the exact order statistic."""

    def test_p75_irt_within_two_percent(self, corpus, reports):
        # Against the exact p75 of each cell's rows.
        _, _, store = corpus
        streamed, _ = reports
        for year, per_type in streamed.switches.p75_irt_h.items():
            for device_type, streamed_p75 in per_type.items():
                durations = [
                    r.duration_h for r in store.all_reports()
                    if r.opened_year == year
                    and r.device_type is device_type
                ]
                assert streamed_p75 == pytest.approx(
                    percentile(durations, 0.75), rel=0.02
                )

    def test_per_type_p75_within_two_percent(self, corpus, reports):
        # Against the SQL query layer's per-cell durations, taking
        # exact percentiles of every cell the fleet has a population
        # for (the cells Figure 13 plots).
        scenario, _, store = corpus
        streamed, _ = reports
        query, fleet = SEVQuery(store), scenario.fleet
        exact = {
            year: {
                device_type: percentile(
                    query.durations(year, device_type), 0.75
                )
                for device_type in per_type
                if fleet.count(year, device_type)
            }
            for year, per_type in query.count_by_year_and_type().items()
            if year in fleet.snapshots
        }
        assert streamed.switches.p75_irt_h.keys() == exact.keys()
        for year, per_type in exact.items():
            assert streamed.switches.p75_irt_h[year].keys() == per_type.keys()
            for device_type, batch_p75 in per_type.items():
                assert streamed.switches.p75_irt_h[year][device_type] \
                    == pytest.approx(batch_p75, rel=0.02)


class TestCheckpointState:
    @pytest.mark.parametrize("seed, digest", [
        (1, "cb9bbc301e12a3d0"),
        (7, "9ecdc3860d71452c"),
        (13, "2d7e1584dc2037fa"),
    ])
    def test_one_shot_state_digest_is_pinned(self, seed, digest):
        # The repro.stream-aggregates/1 checkpoint state of a one-shot
        # live feed: a change here breaks every checkpoint on disk.
        engine = StreamEngine()
        engine.run(live_feed(paper_scenario(seed=seed, scale=SCALE)))
        assert engine.events_ingested == 559
        assert engine.aggregates.digest().startswith(digest)


class TestMergeLaws:
    """The algebra behind N-workers-equals-1-worker determinism."""

    def test_merge_is_order_independent(self):
        scenario = paper_scenario(seed=SEEDS[0], scale=SCALE)
        shards = shard_cells(scenario_cells(scenario), 3)
        parts = [aggregate_cells(scenario, shard) for shard in shards]
        digests = set()
        for order in itertools.permutations(range(len(parts))):
            merged = StreamAggregates()
            for index in order:
                merged.merge(
                    StreamAggregates.from_state(parts[index].to_state())
                )
            digests.add(merged.digest())
        assert len(digests) == 1

    @pytest.mark.parametrize("jobs", [2, 3, 7])
    def test_any_shard_count_matches_one_worker(self, jobs):
        scenario = paper_scenario(seed=SEEDS[1], scale=SCALE)
        baseline = generate_aggregates(scenario, jobs=1)
        sharded = generate_aggregates(
            scenario, jobs=jobs, use_processes=False
        )
        assert sharded.digest() == baseline.digest()
        assert sharded == baseline

    def test_process_pool_matches_inline(self):
        scenario = paper_scenario(seed=SEEDS[2], scale=SCALE)
        pooled = generate_aggregates(scenario, jobs=2, use_processes=True)
        inline = generate_aggregates(scenario, jobs=1)
        assert pooled.digest() == inline.digest()

    def test_sharded_equals_streamed_feed(self):
        scenario = paper_scenario(seed=SEEDS[0], scale=SCALE)
        fed = StreamAggregates()
        fed.ingest_many(iter_scenario_reports(scenario))
        assert generate_aggregates(scenario, jobs=3,
                                   use_processes=False).digest() \
            == fed.digest()
