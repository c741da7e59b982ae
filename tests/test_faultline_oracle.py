"""The differential oracle and the pooled shards' crash recovery.

The acceptance property: under an active fault plan, the plan at every
``jobs`` either reproduces the fault-free reference report
bit-identically or dies with a typed :class:`FaultToleranceError` —
never a silently different answer.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import pytest

from repro.faultline import FaultPlan, FaultSpec, hooks
from repro.faultline.oracle import report_digest, run_differential
from repro.faultline.plan import FaultToleranceError
from repro.runtime import (
    Executor,
    RunContext,
    intra_report_analyses,
    intra_report_from,
    run_intra_report,
)
from repro.simulation.generator import IntraSimulator
from repro.simulation.scenarios import paper_scenario

SEEDS = (1, 7, 13)


@pytest.fixture(scope="module")
def context():
    scenario = paper_scenario(seed=1, scale=0.25)
    store = IntraSimulator(scenario).run()
    return RunContext(store=store, fleet=scenario.fleet,
                      corpus_seed=scenario.seed)


@pytest.fixture(scope="module")
def batch_report(context):
    return run_intra_report(context)


def sharded_report(context, jobs):
    """The store's rows as 32-row column batches in ``jobs`` pool
    shards — the path the ``executor.shard`` site guards."""
    return intra_report_from(Executor(jobs=jobs, batch_size=32).run(
        intra_report_analyses(), context,
        source=context.store.all_reports(),
    ))


class TestReportDigest:
    def test_equal_reports_digest_equally_across_dict_order(self):
        """Dataclass == ignores dict insertion order; the digest must
        too (SQL fills build counts in SQL order, folds in record
        order)."""

        @dataclass
        class Counts:
            by_kind: dict

        a = Counts({"x": 1, "y": 2})
        b = Counts({"y": 2, "x": 1})
        assert a == b
        assert repr(a) != repr(b)
        assert report_digest(a) == report_digest(b)

    def test_different_values_digest_differently(self):
        @dataclass
        class Counts:
            by_kind: dict

        assert report_digest(Counts({"x": 1})) != report_digest(
            Counts({"x": 2})
        )

    def test_sets_and_enums_are_canonical(self):
        class Kind(enum.Enum):
            A = "a"
            B = "b"

        assert report_digest({Kind.A, Kind.B}) == report_digest(
            {Kind.B, Kind.A}
        )

    def test_real_reports_digest_stably(self, context, batch_report):
        again = run_intra_report(context)
        assert report_digest(batch_report) == report_digest(again)


class TestAcceptanceProperty:
    """The 3-seed property from the issue's acceptance criteria."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_identical_or_typed_error(self, seed, tmp_path):
        plan = FaultPlan(seed, [
            FaultSpec("cache.lookup", probability=0.5, max_fires=4),
            FaultSpec("cache.store", probability=0.5, max_fires=4),
            FaultSpec("executor.shard", probability=0.5, max_fires=4),
        ])
        try:
            report = run_differential(
                seed=seed, scale=0.25, plan=plan,
                cache_dir=tmp_path / "cache",
            )
        except FaultToleranceError:
            return  # typed, attributable — never silent divergence
        assert report.identical
        assert [r.jobs for r in report.runs] == [2, 1]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_fault_log_replayable_from_seed(self, seed, tmp_path):
        """Two runs from one seed fire the same faults and digest the
        same reports — a failure run is replayable from its seed."""
        def once(subdir):
            plan = FaultPlan(seed, [
                FaultSpec("cache.lookup", probability=0.5, max_fires=4),
                FaultSpec("cache.store", probability=0.5, max_fires=4),
            ])
            report = run_differential(
                seed=seed, scale=0.25, plan=plan,
                cache_dir=tmp_path / subdir,
            )
            return report.summary()

        assert once("first") == once("second")

    def test_no_plan_means_no_injection(self, tmp_path):
        report = run_differential(seed=1, scale=0.25, plan=None)
        assert report.identical
        assert report.faults_fired == 0


class TestShardCrashRecovery:
    def test_serial_retry_once(self, context, batch_report):
        """One crash among three shards: that shard is resubmitted
        and the report is bit-identical to the plan's."""
        plan = FaultPlan(1, [
            FaultSpec("executor.shard", probability=1.0, max_fires=1)
        ])
        with hooks.injected(plan):
            report = sharded_report(context, 3)
        assert plan.fired("executor.shard") == 1
        assert report_digest(report) == report_digest(batch_report)

    def test_serial_fallback_after_repeated_crashes(self, context,
                                                    batch_report):
        """Unbounded crashes: every one of three shards falls back to
        a suppressed serial fold; the answer is still bit-identical."""
        plan = FaultPlan(1, [
            FaultSpec("executor.shard", probability=1.0)
        ])
        with hooks.injected(plan):
            report = sharded_report(context, 3)
        # Two draws per shard (crash, crashed retry), then the
        # suppressed fallback folds without drawing.
        assert plan.draws("executor.shard") == 6
        assert report_digest(report) == report_digest(batch_report)

    def test_process_pool_resubmit(self, context, batch_report):
        """A crashed submission is resubmitted to the pool; the fault
        is drawn in the parent so the log is exact."""
        plan = FaultPlan(1, [
            FaultSpec("executor.shard", probability=1.0, max_fires=1)
        ])
        with hooks.injected(plan):
            report = sharded_report(context, 2)
        assert plan.fired("executor.shard") == 1
        assert report_digest(report) == report_digest(batch_report)

    def test_process_pool_falls_back_serial(self, context, batch_report):
        """Unbounded crashes: both shards drop to the parent's
        suppressed serial fold."""
        plan = FaultPlan(1, [
            FaultSpec("executor.shard", probability=1.0)
        ])
        with hooks.injected(plan):
            report = sharded_report(context, 2)
        assert plan.draws("executor.shard") == 4
        assert report_digest(report) == report_digest(batch_report)
