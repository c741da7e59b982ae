"""Provenance keys: a warm run answers from the cache before generating.

A generated corpus is keyed by its domain, its scenario's spec digest
and ``GENERATOR_VERSION``, all known before the corpus exists, and
every result key also carries its analysis' ``version``.  So a warm
``report full --cache`` generates nothing, a version bump misses
exactly what it should, and a corpus written to after generation
(only the SEV store ``repro serve`` generates into takes writes)
falls back to the row-based key.
"""

from __future__ import annotations

import itertools

import pytest

from repro.cli import main
from repro.faultline.oracle import report_digest
from repro.incidents import SEVStore
from repro.runtime import (
    Executor,
    ResultCache,
    build_backbone_context,
    build_intra_context,
    provenance_fingerprint,
    run_intra_report,
)
from repro.simulation.backbone_sim import BackboneSimulator
from repro.simulation.generator import IntraSimulator
from repro.simulation.scenarios import paper_backbone_scenario, paper_scenario


@pytest.fixture()
def generations(monkeypatch):
    """Counts IntraSimulator.run and BackboneSimulator.run calls."""
    calls = {"intra": 0, "backbone": 0}

    def counted(kind, run):
        def wrapper(self, *args, **kwargs):
            calls[kind] += 1
            return run(self, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(IntraSimulator, "run",
                        counted("intra", IntraSimulator.run))
    monkeypatch.setattr(BackboneSimulator, "run",
                        counted("backbone", BackboneSimulator.run))
    return calls


def without_cache_lines(text):
    """``text`` minus each ``[cache]`` line and the blank line before it."""
    lines = text.split("\n")
    kept = []
    for line in lines:
        if line.startswith("[cache]"):
            assert kept and kept[-1] == "", text
            kept.pop()
            continue
        kept.append(line)
    return "\n".join(kept)


def new_events(count):
    from repro.simulation.generator import iter_scenario_reports

    return list(itertools.islice(
        iter_scenario_reports(paper_scenario(seed=99, scale=0.1)), count
    ))


class TestWarmFullReport:
    @pytest.mark.parametrize("seed, jobs", [(1, 1), (7, 1), (13, 1), (13, 2)])
    def test_warm_run_generates_nothing(self, tmp_path, capsys,
                                        generations, seed, jobs):
        args = ["report", "full", "--seed", str(seed), "--scale", "0.1",
                "--digest", "--cache", str(tmp_path / "cache"),
                "--jobs", str(jobs)]
        assert main(args) == 0
        cold = capsys.readouterr().out
        assert generations == {"intra": 1, "backbone": 1}
        generations.update(intra=0, backbone=0)

        assert main(args) == 0
        warm = capsys.readouterr().out
        assert generations == {"intra": 0, "backbone": 0}
        cache_lines = [line for line in warm.splitlines()
                       if line.startswith("[cache]")]
        assert len(cache_lines) == 2
        assert all(" 0 computed" in line for line in cache_lines)
        assert "[cache]" not in cold
        assert without_cache_lines(warm) == cold

    def test_warm_study_reports_still_print_their_corpus(
            self, tmp_path, capsys, generations):
        # Both studies answer their corpus line from the cache too
        # (corpus_size, ticket_corpus_size), so neither warm run
        # generates its corpus.
        for study in ("intra", "backbone"):
            args = ["report", study, "--seed", "4", "--scale", "0.1",
                    "--cache", str(tmp_path / study)]
            assert main(args) == 0
            cold = capsys.readouterr().out
            generations[study] = 0
            assert main(args) == 0
            assert without_cache_lines(capsys.readouterr().out) == cold
            assert generations[study] == 0


class TestVersions:
    def full_report(self, cache_dir, capsys):
        assert main(["report", "full", "--seed", "3", "--scale", "0.1",
                     "--cache", str(cache_dir)]) == 0
        return capsys.readouterr().out

    def test_generator_bump_misses_every_generated_corpus(
            self, tmp_path, capsys, monkeypatch, generations):
        import repro.runtime.cache as cache_module

        cold = self.full_report(tmp_path, capsys)
        monkeypatch.setattr(cache_module, "GENERATOR_VERSION", 2)
        generations.update(intra=0, backbone=0)
        bumped = self.full_report(tmp_path, capsys)
        # Intra, backbone and survivability all recompute: no [cache]
        # line, both simulators run again, and the output is the same.
        assert "[cache]" not in bumped
        assert generations == {"intra": 1, "backbone": 1}
        assert bumped == cold

    def test_analysis_bump_recomputes_only_that_analysis(
            self, tmp_path, monkeypatch):
        from repro.runtime.analyses import GrowthAnalysis

        context = build_intra_context(seed=2, scale=0.1)
        cold = report_digest(run_intra_report(
            context, cache=ResultCache(tmp_path)))
        monkeypatch.setattr(GrowthAnalysis, "version", 2)
        cache = ResultCache(tmp_path)
        computed = []
        execute = Executor._execute

        def recorded(self, analyses, *args):
            computed.extend(a.name for a in analyses)
            return execute(self, analyses, *args)

        monkeypatch.setattr(Executor, "_execute", recorded)
        warm = report_digest(run_intra_report(
            build_intra_context(seed=2, scale=0.1), cache=cache))
        assert computed == ["growth"]
        assert (cache.hits, cache.misses) == (7, 1)
        assert warm == cold

    def test_grid_cell_key_carries_the_versions(self, monkeypatch):
        from repro.runtime.analyses import GrowthAnalysis
        from repro.scenarios import GridRunner, preset

        spec = preset("paper").with_updates(seed=2, scale=0.05)
        cache = ResultCache()
        GridRunner(cache=cache).run_cell(spec)
        warm = GridRunner(cache=cache)
        warm.run_cell(spec)
        assert (warm.cell_hits, warm.cell_misses) == (1, 0)
        monkeypatch.setattr(GrowthAnalysis, "version", 2)
        bumped = GridRunner(cache=cache)
        bumped.run_cell(spec)
        assert (bumped.cell_hits, bumped.cell_misses) == (0, 1)


class TestWritesDropProvenance:
    def provenance(self, domain, scenario):
        return provenance_fingerprint(domain, scenario.spec_digest)

    def test_generated_store_is_keyed_by_provenance(self):
        context = build_intra_context(seed=5, scale=0.05)
        expected = self.provenance("sev", paper_scenario(seed=5, scale=0.05))
        assert context.fingerprint_for("sev") == expected
        assert context.pending is not None
        assert context.corpus_for("sev").fingerprint() == expected
        assert context.pending is None

    @pytest.mark.parametrize("write", ["insert", "insert_many", "bulk_load"])
    def test_a_write_drops_the_provenance_key(self, write):
        # The one writable generated corpus: the SEV store repro serve
        # generates into (the CLI's in-memory corpus has no writes).
        context = build_intra_context(
            seed=5, scale=0.05, store=SEVStore(check_same_thread=False),
        )
        store = context.store
        provenance = context.fingerprint_for("sev")
        (event,) = new_events(1)
        if write == "insert":
            store.insert(event)
        else:
            getattr(store, write)([event])
        assert store.provenance is None
        fingerprint = context.fingerprint_for("sev")
        assert fingerprint != provenance
        assert fingerprint == context.corpus_for("sev").fingerprint()

    def test_a_ticket_write_drops_the_provenance_key(self):
        context = build_backbone_context(seed=3)
        provenance = context.fingerprint_for("ticket")
        assert provenance == self.provenance(
            "ticket", paper_backbone_scenario(seed=3))
        context.tickets.add_completed("l-x", "v-x", 1.0, 2.0)
        assert context.fingerprint_for("ticket") != provenance

    def test_pool_workers_get_no_build_closure(self):
        from repro.runtime.executor import _worker_context

        context = build_intra_context(seed=5, scale=0.05)
        worker = _worker_context(context)
        assert worker.pending is None and worker.store is None
        assert context.pending is not None


class TestServeSharedDataDir:
    def test_ingest_never_rewrites_the_provenance_entries(self, tmp_path):
        from repro.serve import ServeApp

        def served(**kwargs):
            return ServeApp(seed=1, scale=0.1, backbone_seed=7,
                            data_dir=tmp_path, **kwargs)

        cli = report_digest(run_intra_report(
            build_intra_context(seed=1, scale=0.1)))
        first = served()
        try:
            first.start()
            store = first.state.intra_context.store
            assert store.provenance is not None
            assert first.state.ingest(new_events(10)) == 10
            assert store.provenance is None
            first.warmer.refold()
            _, moved = first.handle("GET", "/reports/intra")
        finally:
            first.stop()
        assert moved["report_digest"] != cli

        second = served()
        try:
            second.start()
            _, fresh = second.handle("GET", "/reports/intra")
            stats = second.state.cache.stats()
        finally:
            second.stop()
        assert fresh["report_digest"] == cli
        assert stats["misses"] == 0 and stats["hits"] > 0


class TestBackboneStoreDir:
    @pytest.mark.parametrize("seed", [1, 7, 13])
    def test_stored_tickets_need_no_simulation(self, tmp_path, capsys,
                                               generations, seed):
        store = str(tmp_path / "tickets")
        assert main(["store", "init", store, "--dataset", "tickets",
                     "--seed", str(seed)]) == 0
        generated = build_backbone_context(seed=seed)
        generated.generate()
        generations.update(backbone=0)
        stored = build_backbone_context(store_dir=store)
        assert generations["backbone"] == 0
        assert sorted(stored.topology.links) == sorted(
            generated.topology.links)
        assert sorted(stored.topology.edges) == sorted(
            generated.topology.edges)
        assert stored.window_h == generated.window_h
        capsys.readouterr()
