"""The column-batch half of the plan: three-dialect equivalence,
fallback, pool reuse, the one batch class and the one shard call.

Every mergeable state speaks three dialects of the same math — the
per-row reference ``fold``, the array-at-a-time ``fold_batch``, and
(for the SEV states) the ``fold_sql`` GROUP BY pushdown — and the
executor's contract is that the dialect can never change a finalized
result: not across batch framings, not across storage layouts, not
across process boundaries, and not when a batch fold crashes
mid-flight and replays through the per-row fallback.
"""

import pickle
import sqlite3
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faultline import FaultPlan, FaultSpec, hooks
from repro.faultline.oracle import report_digest
from repro.incidents.sev import Severity, SEVReport
from repro.runtime import (
    RunContext,
    SEVCorpus,
    TicketCorpus,
    TrialCorpus,
    build_intra_context,
    intra_report_from,
    run_intra_report,
)
from repro.runtime import executor as executor_module
from repro.runtime.analyses import intra_report_analyses
from repro.runtime.columns import batches_from_records
from repro.runtime.executor import Executor, shutdown_executor_pool
from repro.simulation.generator import IntraSimulator
from repro.simulation.scenarios import paper_scenario
from repro.storage import PartitionedSEVStore
from repro.survivability import generate_trials

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
                store.all_reports(), batch_size=100
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


# -- one batch class, one shard call -----------------------------------

#: The record properties each kind's batch frames beside its fields.
PROPERTIES = {
    "sev": ("opened_year", "device_type", "duration_h"),
    "ticket": ("duration_h",),
    "trial": (),
}


def _sev_records():
    reports = list(build_intra_context(seed=3, scale=0.05).store.all_reports())
    # An untyped device name and no recorded cause: the two rows the
    # folds' None and undetermined rules exist for.
    reports.append(SEVReport(
        sev_id="foreign-1", severity=Severity.SEV3,
        device_name="not-a-device", opened_at_h=9000.0,
        resolved_at_h=9012.5,
    ))
    return reports


@pytest.fixture(scope="module", params=sorted(PROPERTIES))
def kind_records(request, backbone_corpus):
    if request.param == "sev":
        records = _sev_records()
    elif request.param == "ticket":
        records = list(backbone_corpus.tickets.completed())[:500]
    else:
        records = list(generate_trials(
            seed=3, correlated={"trials": 2}).records())
    return request.param, records


class TestColumnBatch:
    def test_framing_then_records_returns_the_input(self, kind_records):
        _, records = kind_records
        rebuilt = [record for batch in batches_from_records(records, 37)
                   for record in batch.records]
        assert rebuilt == records

    def test_columns_are_the_record_fields_and_properties(
        self, kind_records
    ):
        kind, records = kind_records
        names = [f.name for f in fields(type(records[0]))]
        names += PROPERTIES[kind]
        start = 0
        for batch in batches_from_records(records, 64):
            chunk = records[start:start + len(batch)]
            start += len(batch)
            assert batch.record_type is type(records[0])
            assert list(batch.columns) == names
            for name in names:
                expected = [getattr(record, name) for record in chunk]
                assert getattr(batch, name) == expected, name
                assert batch.columns[name] == expected, name
        assert start == len(records)

    def test_a_pickled_batch_ships_columns_only(self, kind_records):
        _, records = kind_records
        batch = next(batches_from_records(records, 50))
        shipped = pickle.dumps(batch)
        # Records rebuilt and memoized on this side ship nothing more.
        assert batch.records == records[:50]
        assert pickle.dumps(batch) == shipped
        restored = pickle.loads(shipped)
        assert restored.__dict__["_records"] is None
        assert restored.columns == batch.columns
        assert restored.records == records[:50]

    def test_an_unknown_column_is_an_attribute_error(self, kind_records):
        _, records = kind_records
        batch = next(batches_from_records(records))
        assert not hasattr(batch, "no_such_field")

    @pytest.mark.parametrize("size", [0, -1])
    def test_batch_size_below_one_raises(self, kind_records, size):
        _, records = kind_records
        with pytest.raises(ValueError, match="batch_size"):
            batches_from_records(records, size)


class TestCorpusShards:
    def test_shard_kinds_generated(self):
        context = build_intra_context(seed=1, scale=0.05)
        ((kind, payload),) = list(context.corpus_for("sev").shards())
        assert kind == "records"
        assert list(payload) == list(context.store.all_reports())

    def test_shard_kinds_monolithic(self, corpus):
        store = corpus["store"]
        assert list(SEVCorpus(store).shards()) == [("store", store)]

    def test_shard_kinds_tiered(self, corpus):
        tiered = corpus["tiered"]
        expected = ["store" if entry.tier == "hot" else "records"
                    for entry in tiered.manifest.partitions()]
        assert [kind for kind, _ in SEVCorpus(tiered).shards()] == expected
        assert "store" in expected and "records" in expected

    def test_tiered_hot_shards_close_after_their_turn(self, corpus):
        shards = SEVCorpus(corpus["tiered"]).shards()
        kind, store = next(shards)
        while kind != "store":
            kind, store = next(shards)
        assert len(store) > 0
        next(shards, None)
        with pytest.raises(sqlite3.ProgrammingError):
            len(store)
        shards.close()

    def test_shard_kinds_ticket(self, backbone_corpus):
        tickets = backbone_corpus.tickets
        ((kind, payload),) = list(TicketCorpus(tickets).shards())
        assert kind == "records"
        assert list(payload) == list(tickets.completed())

    def test_shard_kinds_trial(self):
        trials = generate_trials(seed=3, correlated={"trials": 2})
        ((kind, payload),) = list(TrialCorpus(trials).shards())
        assert kind == "records"
        assert list(payload) == list(trials.records())
