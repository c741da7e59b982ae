"""Plan-vs-reference equivalence for the ticket domain.

The domain-generic counterpart of ``test_runtime_equivalence``: for
any backbone corpus, the executor's plan (column batches — "batch"),
the per-row reference fold ("stream"), the :mod:`repro.core`
finalizers over the monitor's own outage views, and column batches
sharded over the worker pool ("sharded") must produce the same
:class:`~repro.core.reports.BackboneStudyReport` —
identical outage intervals, MTBF/MTTR percentiles, scorecards, and
repair-duration summaries, bit for bit.  Cache hits must return the
stored result unchanged, and ticket fingerprints must never collide
with SEV ones.
"""

import pytest

from repro.backbone.monitor import BackboneMonitor
from repro.backbone.scorecards import scorecards_from_outages
from repro.core import continent_rows_from_failures, reliability_from_outages
from repro.runtime import (
    Executor,
    ResultCache,
    RunContext,
    backbone_report_analyses,
    backbone_report_from,
    reference_fold,
    run_backbone_report,
)
from repro.simulation.backbone_sim import BackboneSimulator
from repro.simulation.scenarios import paper_backbone_scenario

SEEDS = [3, 11, 42]


def make_context(seed):
    corpus = BackboneSimulator(paper_backbone_scenario(seed=seed)).run()
    return RunContext(
        tickets=corpus.tickets, topology=corpus.topology,
        window_h=corpus.window_h, corpus_seed=seed,
    )


@pytest.fixture(scope="module", params=SEEDS)
def context(request):
    return make_context(request.param)


@pytest.fixture(scope="module")
def batch_report(context):
    return run_backbone_report(context)


def reference_report(context):
    return backbone_report_from(
        reference_fold(backbone_report_analyses(), context),
        context.window_h,
    )


def sharded_report(context, jobs):
    """256-ticket column batches packed into ``jobs`` pool shards."""
    return backbone_report_from(
        Executor(jobs=jobs, batch_size=256).run(
            backbone_report_analyses(), context
        ),
        context.window_h,
    )


class TestBackendsAgree:
    def test_stream_equals_batch(self, context, batch_report):
        assert reference_report(context) == batch_report

    def test_monitor_queries_equal_plan(self, context, batch_report):
        monitor = BackboneMonitor(context.topology, context.tickets)
        window = context.window_h
        failures = monitor.failures_by_edge()
        outages = monitor.outages_by_vendor()
        assert batch_report.reliability == reliability_from_outages(
            failures, outages, window
        )
        assert batch_report.continents == continent_rows_from_failures(
            failures, context.topology, window
        )
        assert batch_report.vendors == scorecards_from_outages(
            outages, window
        )

    @pytest.mark.parametrize("jobs", [1, 3, 7])
    def test_sharded_equals_batch_for_any_worker_count(
        self, context, batch_report, jobs
    ):
        assert sharded_report(context, jobs) == batch_report

    def test_parallel_sharded_equals_batch(self, context, batch_report):
        # Pooled column shards must be indistinguishable from the
        # serial column fold.
        assert sharded_report(context, 2) == batch_report

    def test_artifacts_fieldwise(self, context, batch_report):
        # Field-level spellings of the acceptance criteria: every
        # section 6 artifact agrees exactly on every path.
        streamed = reference_report(context)
        rel, batch_rel = streamed.reliability, batch_report.reliability
        assert rel.edge_mtbf.values == batch_rel.edge_mtbf.values
        assert rel.edge_mttr.values == batch_rel.edge_mttr.values
        assert rel.vendor_mttr.values == batch_rel.vendor_mttr.values
        assert streamed.continents == batch_report.continents
        assert streamed.vendors == batch_report.vendors
        assert streamed.durations == batch_report.durations


class TestCacheTransparency:
    def test_cache_hit_is_bit_identical(self, context, batch_report):
        cache = ResultCache()
        first = run_backbone_report(context, cache=cache)
        assert cache.misses > 0 and cache.hits == 0
        cached = run_backbone_report(context, cache=cache)
        assert cache.hits == cache.misses
        assert cached == first == batch_report

    def test_different_seeds_never_collide(self, context, tmp_path):
        # A shared disk cache keyed by fingerprint must keep corpora
        # with different seeds apart even when sizes are close.
        cache = ResultCache(tmp_path / "shared")
        mine = run_backbone_report(context, cache=cache)
        other = run_backbone_report(
            make_context(context.corpus_seed + 1), cache=cache,
        )
        assert other != mine
        assert run_backbone_report(context, cache=cache) == mine


class TestDomainFingerprints:
    def test_ticket_and_sev_fingerprints_never_collide(self):
        # Satellite: a ticket corpus and a SEV corpus with matching
        # row counts and seeds must hash to different cache keys —
        # the domain tag inside the hashed payload keeps them apart.
        from repro.backbone.tickets import TicketDatabase
        from repro.incidents.store import SEVStore
        from repro.runtime import corpus_fingerprint, ticket_fingerprint
        from repro.simulation.generator import iter_scenario_reports
        from repro.simulation.scenarios import paper_scenario

        store = SEVStore()
        store.insert_many(
            iter_scenario_reports(paper_scenario(seed=7, scale=0.2))
        )
        tickets = TicketDatabase()
        for i in range(len(store)):
            tickets.add_completed(
                link_id=f"link-{i % 9}", vendor=f"vendor-{i % 3}",
                started_at_h=float(i), completed_at_h=float(i) + 1.5,
            )
        assert len(tickets.completed()) == len(store)
        sev = corpus_fingerprint(store, seed=7)
        ticket = ticket_fingerprint(tickets, seed=7)
        assert sev != ticket
