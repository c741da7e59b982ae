"""Plan-vs-reference equivalence: the tentpole guarantee of repro.runtime.

For any corpus, the executor's plan (SQL over the store — "batch"),
the per-row reference fold ("stream"), and column batches sharded over
the worker pool ("sharded") must produce the same
:class:`~repro.core.reports.IntraStudyReport` — identical counts,
rates, and fractions, and (at these scales, below the quantile
sketch's exact budget) bit-identical percentiles.  Cache hits must
return the stored result unchanged.
"""

import pytest

from repro.runtime import (
    Executor,
    ResultCache,
    RunContext,
    intra_report_analyses,
    intra_report_from,
    reference_fold,
    run_intra_report,
)
from repro.simulation.generator import IntraSimulator
from repro.simulation.scenarios import paper_scenario

SEEDS = [3, 11, 42]
SCALE = 0.2


@pytest.fixture(scope="module", params=SEEDS)
def context(request):
    scenario = paper_scenario(seed=request.param, scale=SCALE)
    store = IntraSimulator(scenario).run()
    return RunContext(store=store, fleet=scenario.fleet,
                      corpus_seed=scenario.seed)


@pytest.fixture(scope="module")
def batch_report(context):
    return run_intra_report(context)


def reference_report(context):
    return intra_report_from(
        reference_fold(intra_report_analyses(), context)
    )


def sharded_report(context, jobs):
    """The store's rows as 32-row column batches, packed into
    ``jobs`` shards on the worker pool (serial at ``jobs=1``)."""
    return intra_report_from(Executor(jobs=jobs, batch_size=32).run(
        intra_report_analyses(), context,
        source=context.store.all_reports(),
    ))


class TestBackendsAgree:
    def test_stream_equals_batch(self, context, batch_report):
        assert reference_report(context) == batch_report

    @pytest.mark.parametrize("jobs", [1, 3, 7])
    def test_sharded_equals_batch_for_any_worker_count(
        self, context, batch_report, jobs
    ):
        assert sharded_report(context, jobs) == batch_report

    def test_parallel_sharded_equals_batch(self, context, batch_report):
        # Pooled column shards must be indistinguishable from the
        # serial column fold (and therefore from the SQL plan).
        assert sharded_report(context, 2) == sharded_report(context, 1)
        assert run_intra_report(context, jobs=2) == batch_report

    def test_counts_and_rates_fieldwise(self, context, batch_report):
        # Field-level spellings of the acceptance criteria: exact
        # agreement on counts and rates, percentiles within 2%.
        streamed = reference_report(context)
        assert streamed.root_causes.counts == batch_report.root_causes.counts
        assert streamed.rates.rates == batch_report.rates.rates
        assert streamed.severity.counts == batch_report.severity.counts
        assert streamed.distribution.counts == batch_report.distribution.counts
        assert streamed.designs.counts == batch_report.designs.counts
        assert streamed.switches.mtbi_h == batch_report.switches.mtbi_h
        assert streamed.growth == batch_report.growth
        for year, per_type in batch_report.switches.p75_irt_h.items():
            for device_type, exact in per_type.items():
                approx = streamed.switches.p75_irt_h[year][device_type]
                assert approx == pytest.approx(exact, rel=0.02)


class TestCacheTransparency:
    def test_cache_hit_is_bit_identical(self, context, batch_report):
        cache = ResultCache()
        first = run_intra_report(context, cache=cache)
        assert cache.misses > 0 and cache.hits == 0
        cached = run_intra_report(context, cache=cache)
        assert cache.hits == cache.misses
        assert cached == first == batch_report

    def test_different_seeds_never_collide(self, context, tmp_path):
        # A shared disk cache keyed by fingerprint must keep corpora
        # with different seeds apart even when row counts match.
        cache = ResultCache(tmp_path / "shared")
        mine = run_intra_report(context, cache=cache)
        other_scenario = paper_scenario(seed=context.corpus_seed + 1,
                                        scale=SCALE)
        other_context = RunContext(
            store=IntraSimulator(other_scenario).run(),
            fleet=other_scenario.fleet,
            corpus_seed=other_scenario.seed,
        )
        other = run_intra_report(other_context, cache=cache)
        assert other != mine
        assert run_intra_report(context, cache=cache) == mine
