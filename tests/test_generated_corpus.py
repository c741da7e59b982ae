"""Generated SEV corpora fold in memory, not through SQLite.

A generated intra corpus (``report intra``/``full``, every CLI grid cell)
is published into a :class:`~repro.incidents.memory.ReportSink` and
held as read-only :class:`~repro.incidents.memory.GeneratedReports`,
which the plan folds as column batches: no SQLite connection is
opened, and every report digest equals the one a SEV store of the
same scenario gives.  Only ``repro serve`` keeps a generated corpus in
SQLite (``build_intra_context(..., store=...)`` for its served corpus
and report jobs, ``GridRunner(sev_store=...)`` for its grid jobs).
"""

from __future__ import annotations

import sqlite3

import pytest

from repro.faultline.oracle import report_digest
from repro.incidents import GeneratedReports, ReportSink, SEVStore
from repro.runtime import (
    Executor,
    RunContext,
    SEVCorpus,
    build_intra_context,
    generated_intra_context,
    intra_report_analyses,
    intra_report_from,
    provenance_fingerprint,
    reference_fold,
    run_intra_report,
)
from repro.simulation.generator import IntraSimulator
from repro.simulation.scenarios import paper_scenario

SEEDS = (1, 7, 13)
SCALE = 0.25


@pytest.fixture()
def connections(monkeypatch):
    """Counts every ``sqlite3.connect`` call."""
    opened = []
    connect = sqlite3.connect

    def counted(*args, **kwargs):
        opened.append(args[0] if args else kwargs.get("database"))
        return connect(*args, **kwargs)

    monkeypatch.setattr(sqlite3, "connect", counted)
    return opened


def stored_digests(scenario):
    """Reference fold and plan at jobs=2 over a SEV store of ``scenario``."""
    with IntraSimulator(scenario).run() as store:
        context = RunContext(store=store, fleet=scenario.fleet,
                             corpus_seed=scenario.seed)
        return {
            "reference": report_digest(intra_report_from(
                reference_fold(intra_report_analyses(), context))),
            "jobs=2": report_digest(run_intra_report(context, jobs=2)),
        }


class TestInMemoryPath:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_report_opens_no_connection(self, connections, seed):
        context = build_intra_context(seed=seed, scale=SCALE)
        report = run_intra_report(context)
        assert connections == []
        assert isinstance(context.store, GeneratedReports)
        assert report_digest(report)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_digest_equals_the_stored_corpus(self, seed):
        digest = report_digest(run_intra_report(
            build_intra_context(seed=seed, scale=SCALE)))
        stored = stored_digests(paper_scenario(seed=seed, scale=SCALE))
        assert stored == {"reference": digest, "jobs=2": digest}

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_reference_and_pooled_batches_agree(self, jobs):
        context = build_intra_context(seed=7, scale=SCALE)
        planned = report_digest(intra_report_from(
            Executor(jobs=jobs, batch_size=64).run(
                intra_report_analyses(), context)))
        reference = report_digest(intra_report_from(
            reference_fold(intra_report_analyses(), context)))
        assert planned == reference

    def test_grid_cell_opens_no_connection(self, connections):
        from repro.scenarios import GridRunner, preset

        record = GridRunner().run_cell(
            preset("paper").with_updates(seed=7, scale=0.1))
        assert connections == []
        assert record["metrics"]["rows"] > 0


class TestReadOnlyCorpus:
    def corpus(self):
        return build_intra_context(seed=5, scale=0.05).store

    @pytest.mark.parametrize(
        "method", ["insert", "insert_many", "bulk_load", "append", "extend"])
    def test_it_has_no_write_method(self, method):
        assert not hasattr(self.corpus(), method)

    def test_it_is_not_a_list(self):
        corpus = self.corpus()
        assert not isinstance(corpus, (list, tuple))
        with pytest.raises(AttributeError):
            corpus.provenance = None

    def test_it_keeps_the_provenance_key(self):
        corpus = self.corpus()
        scenario = paper_scenario(seed=5, scale=0.05)
        assert corpus.provenance == provenance_fingerprint(
            "sev", scenario.spec_digest)
        assert SEVCorpus(corpus).fingerprint() == corpus.provenance

    def test_rows_are_the_published_rows(self):
        scenario = paper_scenario(seed=5, scale=0.05)
        sink = IntraSimulator(scenario).run(store=ReportSink())
        corpus = self.corpus()
        assert len(corpus) == len(sink)
        assert list(corpus.all_reports()) == list(sink)
        with IntraSimulator(scenario).run() as store:
            assert sorted(r.sev_id for r in corpus.all_reports()) == sorted(
                r.sev_id for r in store.all_reports())


class TestServedStore:
    def test_a_given_store_takes_the_rows(self):
        scenario = paper_scenario(seed=5, scale=0.05)
        store = SEVStore(check_same_thread=False)
        context = generated_intra_context(scenario, store=store)
        try:
            assert context.store is store
            assert store.provenance == context.corpus_for(
                "sev").fingerprint()
            assert [kind for kind, _ in
                    context.corpus_for("sev").shards()] == ["store"]
            served = report_digest(run_intra_report(context))
        finally:
            store.close()
        assert served == report_digest(run_intra_report(
            generated_intra_context(scenario)))

    def test_build_intra_context_forwards_the_store(self):
        store = SEVStore()
        context = build_intra_context(seed=5, scale=0.05, store=store)
        with context.store as built:
            assert built is store
            assert len(store) > 0

    def test_a_store_and_a_store_dir_are_refused(self, tmp_path):
        with SEVStore() as store:
            with pytest.raises(ValueError, match="store"):
                build_intra_context(store=store, store_dir=tmp_path)

    def test_serve_grid_cells_fold_in_sev_stores(self, connections):
        from repro.scenarios import GridRunner, GridSpec, preset
        from repro.serve.jobs import execute_job
        from repro.serve.payloads import canonical_json

        axes = {"fabric_year": [2015, 2016]}
        served = execute_job("grid", {"seed": 1, "scale": 0.05,
                                      "axes": axes})
        # One SEV store per intra cell, as a serve report job builds.
        assert len(connections) == 2
        grid = GridSpec(base=preset("paper").with_updates(seed=1,
                                                          scale=0.05),
                        axes=axes)
        assert served == canonical_json(GridRunner().run(grid))
