"""The pre-warmer: hot reports, live ingest, re-folding.

The serving contract under test: after ``prewarm`` the first request
reuses a built payload, and after new events land through ``tail``
the served report reflects them — rebuilt off the request path, so
the next request again reuses a built payload and never reaches the
result cache.
"""

from __future__ import annotations

import itertools
import sys
import textwrap
import threading

import pytest

from repro.serve import ServeApp
from repro.serve.warm import CacheWarmer


@pytest.fixture()
def app():
    served = ServeApp(seed=1, scale=0.1, prewarm=False)
    yield served
    served.stop()


def new_events(count):
    from repro.simulation.generator import iter_scenario_reports
    from repro.simulation.scenarios import paper_scenario

    return itertools.islice(
        iter_scenario_reports(paper_scenario(seed=99, scale=0.1)), count
    )


class TestPrewarm:
    def test_reads_and_jobs_import_nothing(self, fresh_python):
        # Whatever a served read or a report job needs is loaded by the
        # time the pre-warmed app starts serving, so no lazy import
        # lands inside a timed read or job.
        out = fresh_python(textwrap.dedent("""
            import json
            import sys

            from repro.serve import ServeApp

            with ServeApp(seed=1, scale=0.1, prewarm=True) as app:
                before = set(sys.modules)
                for path in ("/reports/intra", "/figures/fig3",
                             "/tables/table4"):
                    assert app.handle("GET", path)[0] == 200, path
                job = {"kind": "report", "params": {
                    "study": "intra", "seed": 2, "scale": 0.1}}
                status, posted = app.handle(
                    "POST", "/jobs", body=json.dumps(job).encode())
                assert status == 202
                assert app.queue.join(timeout=300)
                _, done = app.handle("GET", "/jobs/" + posted["id"])
                assert done["status"] == "done", done
                print(sorted(set(sys.modules) - before))
        """))
        assert out[-1] == "[]"

    def test_first_request_after_prewarm_is_a_hit(self, app):
        digests = app.warmer.prewarm()
        assert set(digests) == {"intra", "backbone", "survivability"}
        memo_before = app.state.payload_stats()
        before = app.state.cache.stats()
        _, payload = app.handle("GET", "/reports/intra")
        after = app.state.cache.stats()
        assert payload["report_digest"] == digests["intra"]
        assert app.state.payload_stats()["hits"] > memo_before["hits"]
        assert after["hits"] == before["hits"]
        assert after["misses"] == before["misses"]

    def test_prewarm_is_idempotent(self, app):
        first = app.warmer.prewarm()
        misses_after_first = app.state.cache.stats()["misses"]
        second = app.warmer.prewarm()
        assert first == second
        assert app.state.cache.stats()["misses"] == misses_after_first
        assert app.warmer.stats()["prewarms"] == 2

    def test_start_prewarms_when_enabled(self):
        served = ServeApp(seed=1, scale=0.1, prewarm=True)
        try:
            served.start()
            assert served.warmer.stats()["prewarms"] >= 1
        finally:
            served.stop()


class TestNotifyRefold:
    def test_notify_triggers_refold_at_cadence(self, app):
        app.warmer.refold_every = 4
        assert app.warmer.notify(3) is False
        assert app.warmer.stats()["dirty"] == 3
        assert app.warmer.notify(1) is True
        stats = app.warmer.stats()
        assert stats["refolds"] == 1
        assert stats["dirty"] == 0

    def test_refold_every_validated(self, app):
        with pytest.raises(ValueError, match="refold_every"):
            CacheWarmer(app.state, refold_every=0)


class TestTail:
    def test_tail_folds_events_and_rotates_the_report(self, app):
        app.warmer.prewarm()
        _, before = app.handle("GET", "/reports/intra")
        rows_before = len(app.state.intra_context.store)

        ingested = app.warmer.tail(new_events(10))
        assert ingested == 10
        assert len(app.state.intra_context.store) == rows_before + 10
        _, stats = app.handle("GET", "/stats")
        assert stats["stream"]["events_ingested"] == 10
        assert app.warmer.stats()["events_tailed"] == 10

        # The corpus moved, so the served report moved with it — and
        # the tail's final refold means the request reuses the payload
        # it rebuilt.
        memo_before = app.state.payload_stats()
        cache_before = app.state.cache.stats()
        _, after = app.handle("GET", "/reports/intra")
        assert after["report_digest"] != before["report_digest"]
        cache_after = app.state.cache.stats()
        assert app.state.payload_stats()["hits"] > memo_before["hits"]
        assert cache_after["hits"] == cache_before["hits"]
        assert cache_after["misses"] == cache_before["misses"]

    def test_tail_respects_limit(self, app):
        ingested = app.warmer.tail(new_events(50), limit=8, batch=4)
        assert ingested == 8

    def test_tail_of_empty_source_is_a_noop(self, app):
        assert app.warmer.tail(iter(())) == 0
        assert app.warmer.stats()["refolds"] == 0


class TestServedCorpusKeepsSQLite:
    """The served corpus stays a SEV store: its keys guard ingests."""

    def test_a_served_sev_id_is_refused(self, app):
        import sqlite3

        _, before = app.handle("GET", "/reports/intra")
        store = app.state.intra_context.store
        rows = len(store)
        ingested = app.state.events_ingested
        served = next(store.all_reports())
        with pytest.raises(sqlite3.IntegrityError):
            app.state.ingest([*new_events(1), served])
        assert len(store) == rows
        assert app.state.events_ingested == ingested
        _, after = app.handle("GET", "/reports/intra")
        assert after["report_digest"] == before["report_digest"]


class TestPayloadMemo:
    """Each study's payload is built once per corpus generation."""

    READS = ("/reports/intra", "/reports/backbone",
             "/reports/survivability", "/figures/fig3", "/figures/fig15",
             "/tables/table2", "/tables/table4")

    def test_reads_compute_no_digest_until_an_ingest(self, app,
                                                      monkeypatch):
        from repro.faultline import oracle

        digested = []
        real_digest = oracle.report_digest

        def counted(report):
            digested.append(type(report).__name__)
            return real_digest(report)

        monkeypatch.setattr(oracle, "report_digest", counted)
        app.warmer.prewarm()
        assert len(digested) == 3
        assert app.state.payload_stats() == {"builds": 3, "hits": 0}

        for i in range(30):
            status, _ = app.handle("GET", self.READS[i % len(self.READS)])
            assert status == 200
        assert len(digested) == 3
        assert app.state.payload_stats() == {"builds": 3, "hits": 30}

        app.warmer.tail(new_events(10))
        assert digested[3:] == ["IntraStudyReport"]
        app.handle("GET", "/reports/intra")
        assert len(digested) == 4
        assert app.state.payload_stats() == {"builds": 4, "hits": 31}

    def test_concurrent_first_reads_build_each_payload_once(self, app):
        # More readers than cores and a short switch interval: a
        # duplicate build or a lost counter update breaks the totals.
        readers, reads = 8, 40

        def read(worker):
            for i in range(reads):
                path = self.READS[(worker + i) % len(self.READS)]
                assert app.handle("GET", path)[0] == 200

        threads = [threading.Thread(target=read, args=(worker,))
                   for worker in range(readers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert app.state.payload_stats() == {
            "builds": 3, "hits": readers * reads - 3,
        }

    @pytest.mark.parametrize("seed", [1, 7, 13])
    def test_served_digest_after_tail_matches_a_direct_run(self, seed):
        from repro.faultline.oracle import report_digest
        from repro.runtime import run_intra_report

        served = ServeApp(seed=seed, scale=0.1, prewarm=False)
        try:
            _, before = served.handle("GET", "/reports/intra")
            assert served.warmer.tail(new_events(10)) == 10
            _, after = served.handle("GET", "/reports/intra")
            direct = report_digest(
                run_intra_report(served.state.intra_context)
            )
        finally:
            served.stop()
        assert after["report_digest"] == direct
        assert after["report_digest"] != before["report_digest"]
