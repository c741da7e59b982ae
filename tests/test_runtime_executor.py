"""Tests for the unified execution layer (:mod:`repro.runtime`)."""

import pytest

from repro.core import (
    DesignComparison,
    IncidentDistribution,
    RootCauseBreakdown,
    SeverityByDevice,
    design_counts_from_type_counts,
    growth_from_totals,
    rates_from_counts,
    severity_rates_from_counts,
    switch_reliability_from_counts,
)
from repro.fleet.population import paper_fleet
from repro.incidents.query import SEVQuery
from repro.incidents.sev import RootCause
from repro.incidents.store import SEVStore
from repro.runtime import (
    Analysis,
    Executor,
    ResultCache,
    RunContext,
    corpus_fingerprint,
    intra_report_analyses,
    reference_fold,
    registry,
    run_intra_report,
)
from repro.runtime.analyses import (
    GrowthAnalysis,
    IncidentRatesAnalysis,
    RemediationTableAnalysis,
    RootCausesAnalysis,
    SeverityByDeviceAnalysis,
)
from repro.simulation.generator import IntraSimulator, iter_scenario_reports
from repro.simulation.scenarios import paper_scenario
from repro.stats.mttr import p75


@pytest.fixture(scope="module")
def scenario():
    return paper_scenario(seed=9, scale=0.15)


@pytest.fixture(scope="module")
def store(scenario):
    return IntraSimulator(scenario).run()


@pytest.fixture(scope="module")
def context(scenario, store):
    return RunContext(store=store, fleet=scenario.fleet,
                      corpus_seed=scenario.seed)


class TestExecutorConstruction:
    def test_rejects_unknown_backend(self):
        # One planned path: there is no backend to choose.
        with pytest.raises(TypeError, match="backend"):
            Executor(backend="batch")

    def test_rejects_zero_jobs(self):
        with pytest.raises(ValueError, match="jobs"):
            Executor(jobs=0)

    def test_rejects_duplicate_analysis_names(self, context):
        with pytest.raises(ValueError, match="duplicate"):
            Executor().run([RootCausesAnalysis(), RootCausesAnalysis()],
                           context)


#: Every path the runtime can answer Table 2 by: the plan's SQL fill
#: ("batch"), the per-row reference fold ("stream"), and the store's
#: rows as 64-row column batches sharded over the pool ("sharded").
PATHS = {
    "batch": lambda analyses, context: Executor().run(analyses, context),
    "stream": reference_fold,
    "sharded": lambda analyses, context: Executor(
        jobs=2, batch_size=64
    ).run(analyses, context, source=context.store.all_reports()),
}


class TestBackends:
    @pytest.mark.parametrize("backend", ["batch", "stream", "sharded"])
    def test_root_causes_match_sql(self, backend, context, store):
        result = PATHS[backend](
            [RootCausesAnalysis()], context
        )["root_causes"]
        assert result.counts == SEVQuery(store).count_by_root_cause()

    def test_explicit_source_overrides_store(self, scenario, context):
        # Feeding the records directly must match reading the store.
        result = Executor().run(
            [RootCausesAnalysis()], context,
            source=iter_scenario_reports(scenario),
        )["root_causes"]
        baseline = Executor().run(
            [RootCausesAnalysis()], context
        )["root_causes"]
        assert result == baseline

    def test_fold_without_any_source_is_an_error(self):
        with pytest.raises(ValueError, match="no record source"):
            Executor().run(
                [RootCausesAnalysis()],
                RunContext(fleet=paper_fleet()),
            )

    def test_empty_corpus_raises(self):
        context = RunContext(store=SEVStore(), fleet=paper_fleet())
        with pytest.raises(ValueError, match="empty"):
            Executor().run([GrowthAnalysis()], context)

    def test_explicit_year_is_honored(self, context, store):
        pinned = RunContext(store=store, fleet=context.fleet, year=2014)
        result = Executor().run(
            [SeverityByDeviceAnalysis()], pinned
        )["severity_by_device"]
        assert result.year == 2014


class TestStateSharing:
    def test_shared_state_key_folds_once_per_record(self, context):
        folds = {"n": 0}

        class Counting(IncidentRatesAnalysis):
            def fold(self, report, state):
                folds["n"] += 1
                super().fold(report, state)

        # rates and growth share state_key="year_type": one fold each.
        results = reference_fold([Counting(), GrowthAnalysis()], context)
        assert folds["n"] == len(context.store)
        assert results["growth"] > 0

    def test_private_states_fold_independently(self, context):
        # Different state_keys: each owner folds every record.
        results = reference_fold(
            [RootCausesAnalysis(), GrowthAnalysis()], context
        )
        total = sum(results["root_causes"].counts.values())
        assert total >= len(context.store)


class TestContextOnlyAnalyses:
    def test_remediation_needs_engine(self, context):
        with pytest.raises(ValueError, match="RemediationEngine"):
            Executor().run([RemediationTableAnalysis()], context)

    def test_requires_corpus_flag(self):
        assert RemediationTableAnalysis.requires_corpus is False
        assert RootCausesAnalysis.requires_corpus is True


class TestCache:
    def test_second_run_hits_for_every_analysis(self, context):
        cache = ResultCache()
        executor = Executor(cache=cache)
        analyses = intra_report_analyses()
        first = executor.run(analyses, context)
        assert cache.misses == len(analyses) and cache.hits == 0
        second = executor.run(intra_report_analyses(), context)
        assert cache.hits == len(analyses)
        assert first == second

    def test_jobs_share_entries(self, context):
        # How a result was gathered is not part of its key: a pooled
        # run reads what a serial run stored.
        cache = ResultCache()
        first = Executor(cache=cache).run([RootCausesAnalysis()], context)
        second = Executor(jobs=2, cache=cache).run(
            [RootCausesAnalysis()], context
        )
        assert cache.hits == 1 and cache.misses == 1
        assert first == second

    def test_disk_cache_survives_processes(self, context, tmp_path):
        first = Executor(cache=ResultCache(tmp_path)).run(
            [RootCausesAnalysis()], context
        )
        fresh = ResultCache(tmp_path)
        second = Executor(cache=fresh).run(
            [RootCausesAnalysis()], context
        )
        assert fresh.hits == 1 and fresh.misses == 0
        assert first == second

    def test_explicit_source_bypasses_cache(self, scenario, context):
        cache = ResultCache()
        Executor(cache=cache).run(
            [RootCausesAnalysis()], context,
            source=iter_scenario_reports(scenario),
        )
        assert len(cache) == 0

    def test_clear(self, context, tmp_path):
        cache = ResultCache(tmp_path)
        Executor(cache=cache).run(
            [RootCausesAnalysis()], context
        )
        assert len(cache) == 1 and list(tmp_path.glob("*.pkl"))
        cache.clear()
        assert len(cache) == 0 and not list(tmp_path.glob("*.pkl"))


class TestFingerprint:
    def test_changes_with_rows(self, store, scenario):
        before = corpus_fingerprint(store)
        other = IntraSimulator(paper_scenario(seed=9, scale=0.1)).run()
        assert before != corpus_fingerprint(other)

    def test_changes_with_seed(self, store):
        assert (corpus_fingerprint(store, seed=1)
                != corpus_fingerprint(store, seed=2))

    def test_stable(self, store):
        assert corpus_fingerprint(store) == corpus_fingerprint(store)


class TestRegistry:
    def test_names_are_unique_and_match_keys(self):
        reg = registry()
        assert all(name == analysis.name for name, analysis in reg.items())
        assert len(reg) == 16

    def test_every_entry_is_an_analysis(self):
        assert all(isinstance(a, Analysis) for a in registry().values())

    def test_corpus_analyses_have_batch_paths(self):
        # Every corpus analysis folds column batches; every SEV one
        # also fills from SQL, so a SEV store is answered by SQL alone.
        for analysis in registry().values():
            if analysis.requires_corpus:
                method = type(analysis).fold_batch
                assert method is not Analysis.fold_batch, analysis.name
                if analysis.domain == "sev":
                    method = type(analysis).fold_sql
                    assert method is not Analysis.fold_sql, analysis.name


class TestRunIntraReport:
    def test_matches_core_entry_point(self, context, store):
        # Every artifact equals its repro.core finalizer over the SQL
        # query layer's counts; at this scale every sketch is exact.
        report = run_intra_report(context)
        query, fleet, year = SEVQuery(store), context.fleet, report.last_year
        per_type = query.count_by_year_and_type()
        totals = query.count_by_year()
        assert report.root_causes == RootCauseBreakdown(
            query.count_by_root_cause()
        )
        assert report.rates == rates_from_counts(per_type, fleet)
        assert report.severity == SeverityByDevice(
            query.count_by_severity_and_type(year), year
        )
        assert report.severity_over_time == severity_rates_from_counts(
            query.count_by_year_and_severity(), fleet
        )
        assert report.distribution == IncidentDistribution(per_type, year)
        assert report.designs == DesignComparison(
            design_counts_from_type_counts(per_type), year, fleet
        )
        assert report.switches == switch_reliability_from_counts(
            per_type, fleet, lambda y, t: p75(query.durations(y, t))
        )
        assert report.growth == growth_from_totals(totals, min(totals), year)

    def test_render_smoke(self, context):
        text = run_intra_report(context).render()
        assert "Table 2" in text and "Growth (Figure 8)" in text
