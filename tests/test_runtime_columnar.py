"""The column-batch half of the plan: three-dialect equivalence,
fallback, pool reuse.

Every mergeable state speaks three dialects of the same math — the
per-row reference ``fold``, the array-at-a-time ``fold_batch``, and
(for the SEV states) the ``fold_sql`` GROUP BY pushdown — and the
executor's contract is that the dialect can never change a finalized
result: not across batch framings, not across storage layouts, not
across process boundaries, and not when a batch fold crashes
mid-flight and replays through the per-row fallback.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faultline import FaultPlan, FaultSpec, hooks
from repro.faultline.oracle import report_digest
from repro.runtime import RunContext, intra_report_from, run_intra_report
from repro.runtime import executor as executor_module
from repro.runtime.analyses import intra_report_analyses
from repro.runtime.columns import batches_from_records
from repro.runtime.executor import Executor, shutdown_executor_pool
from repro.simulation.generator import IntraSimulator
from repro.simulation.scenarios import paper_scenario
from repro.storage import PartitionedSEVStore

SEEDS = [3, 11, 42]
SCALE = 0.1


@pytest.fixture(scope="module", params=SEEDS)
def corpus(request, tmp_path_factory):
    scenario = paper_scenario(seed=request.param, scale=SCALE)
    store = IntraSimulator(scenario).run()
    tiered = PartitionedSEVStore.init(
        tmp_path_factory.mktemp("tiered") / f"sev-{request.param}"
    )
    tiered.ingest(store.all_reports())
    years = tiered.years()
    if len(years) > 1:
        tiered.compact(keep_hot_years=max(1, len(years) // 2))
    return {
        "seed": request.param,
        "fleet": scenario.fleet,
        "store": store,
        "tiered": tiered,
    }


@pytest.fixture(scope="module")
def context(corpus):
    return RunContext(store=corpus["store"], fleet=corpus["fleet"],
                      corpus_seed=corpus["seed"])


@pytest.fixture(scope="module")
def tiered_context(corpus):
    return RunContext(store=corpus["tiered"], fleet=corpus["fleet"],
                      corpus_seed=corpus["seed"])


@pytest.fixture(scope="module")
def batch_report(context):
    return run_intra_report(context)


def batched(context, source, jobs=1, batch_size=64, executor=None):
    """The intra report folded from ``source`` as column batches."""
    executor = executor or Executor(jobs=jobs, batch_size=batch_size)
    return intra_report_from(
        executor.run(intra_report_analyses(), context, source=source)
    )


class TestThreeDialectEquivalence:
    def test_every_opted_in_analysis_agrees_across_dialects(
        self, corpus, context
    ):
        # The satellite property, spelled per analysis: fold,
        # fold_batch, and fold_sql reach bit-identical finalized
        # results over the same corpus.
        store = corpus["store"]
        checked = 0
        for analysis in intra_report_analyses():
            state = analysis.prepare(context)
            for report in store.all_reports():
                analysis.fold(report, state)
            reference = analysis.finalize(state, context)

            state = analysis.prepare(context)
            for batch in batches_from_records(
                "sev", store.all_reports(), batch_size=100
            ):
                analysis.fold_batch(batch, state)
            assert analysis.finalize(state, context) == reference, (
                analysis.name
            )

            state = analysis.prepare(context)
            analysis.fold_sql(store, state)
            assert analysis.finalize(state, context) == reference, (
                analysis.name
            )
            checked += 1
        assert checked >= 6

    @settings(max_examples=8, deadline=None)
    @given(batch_size=st.integers(min_value=1, max_value=384))
    def test_batch_framing_never_changes_the_report(
        self, context, batch_report, batch_size
    ):
        # The merge law in action: any chunking of the corpus into
        # column batches folds to the identical report.
        assert batched(
            context, context.store.all_reports(), batch_size=batch_size
        ) == batch_report

    def test_columnar_equals_batch_over_partitions(
        self, corpus, tiered_context, batch_report
    ):
        # The tiered layout's record scan, framed into column batches.
        assert batched(
            tiered_context, corpus["tiered"].all_reports()
        ) == batch_report

    def test_sql_pushdown_equals_batch_over_partitions(
        self, tiered_context, batch_report
    ):
        # The plan over a tiered store runs per-partition GROUP BYs
        # on hot shards and column-batch folds on cold ones.
        assert run_intra_report(tiered_context) == batch_report

    def test_parallel_columnar_equals_batch(
        self, tiered_context, batch_report
    ):
        # The cold partitions' batches ship to the pool; SQL stays.
        assert run_intra_report(tiered_context, jobs=2) == batch_report


class TestColumnFoldFallback:
    def test_injected_fold_crash_falls_back_row_wise(
        self, context, batch_report
    ):
        plan = FaultPlan(context.corpus_seed, [
            FaultSpec("runtime.fold", probability=1.0, max_fires=3),
        ])
        executor = Executor(batch_size=64)
        with hooks.injected(plan):
            faulted = batched(context, context.store.all_reports(),
                              executor=executor)
        assert plan.fired("runtime.fold") == 3
        assert executor.columnar_fallbacks == 3
        assert report_digest(faulted) == report_digest(batch_report)

    def test_fault_free_run_counts_no_fallbacks(self, context):
        executor = Executor(batch_size=64)
        batched(context, context.store.all_reports(), executor=executor)
        assert executor.columnar_fallbacks == 0


class TestSharedProcessPool:
    def test_pool_survives_across_runs(self, context, batch_report):
        shutdown_executor_pool()
        first = batched(context, context.store.all_reports(), jobs=2)
        pool = executor_module._POOL
        assert pool is not None
        second = batched(context, context.store.all_reports(), jobs=2,
                         batch_size=32)
        assert executor_module._POOL is pool
        assert first == second == batch_report
        shutdown_executor_pool()

    def test_shutdown_is_idempotent_and_rebuilds(self, context, batch_report):
        shutdown_executor_pool()
        shutdown_executor_pool()
        assert executor_module._POOL is None
        assert batched(
            context, context.store.all_reports(), jobs=2
        ) == batch_report
        assert executor_module._POOL is not None
        shutdown_executor_pool()
        assert executor_module._POOL is None
