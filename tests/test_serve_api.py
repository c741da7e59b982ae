"""The HTTP serving layer: routing, caching, and digest parity.

The acceptance contract: every report endpoint's JSON carries a
``report_digest`` bit-identical to what the CLI computes for the same
corpus+seed, a warmed repeat request reuses the study's built payload
without reaching the result cache, and every response leaves the
server in one socket write.
"""

from __future__ import annotations

import http.client
import json
import re
import socket
import socketserver
import threading
import urllib.request

import pytest

from repro.serve import JOB_KINDS, ServeApp, figure_ids

SEED, SCALE, BACKBONE_SEED = 1, 0.25, 7


@pytest.fixture(scope="module")
def app():
    served = ServeApp(seed=SEED, scale=SCALE, backbone_seed=BACKBONE_SEED,
                      prewarm=True)
    served.start()
    yield served
    served.stop()


class TestRouting:
    def test_index_lists_endpoints(self, app):
        status, payload = app.handle("GET", "/")
        assert status == 200
        assert "GET /reports/intra" in payload["endpoints"]
        assert "POST /jobs" in payload["endpoints"]

    def test_healthz(self, app):
        status, payload = app.handle("GET", "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["sev_rows"] > 0
        assert payload["tickets"] > 0

    def test_unknown_route_is_json_404(self, app):
        status, payload = app.handle("GET", "/nope")
        assert status == 404
        assert "error" in payload

    def test_unknown_figure_is_404(self, app):
        status, payload = app.handle("GET", "/figures/fig999")
        assert status == 404
        assert "fig999" in payload["error"]

    def test_tables_do_not_serve_figures(self, app):
        status, payload = app.handle("GET", "/tables/fig3")
        assert status == 404
        status, payload = app.handle("GET", "/figures/table2")
        assert status == 404

    def test_post_only_on_jobs(self, app):
        status, payload = app.handle("POST", "/reports/intra", None, b"{}")
        assert status == 405


class TestReports:
    def test_intra_digest_matches_direct_runtime_run(self, app):
        from repro.faultline.oracle import report_digest
        from repro.runtime import run_intra_report
        from repro.serve import build_intra_context

        status, payload = app.handle("GET", "/reports/intra")
        assert status == 200
        direct = report_digest(run_intra_report(
            build_intra_context(seed=SEED, scale=SCALE),
        ))
        assert payload["report_digest"] == direct

    def test_backbone_digest_matches_direct_runtime_run(self, app):
        from repro.faultline.oracle import report_digest
        from repro.runtime import run_backbone_report
        from repro.serve import build_backbone_context

        status, payload = app.handle("GET", "/reports/backbone")
        assert status == 200
        direct = report_digest(run_backbone_report(
            build_backbone_context(seed=BACKBONE_SEED),
        ))
        assert payload["report_digest"] == direct

    def test_warmed_repeat_request_reuses_the_payload(self, app):
        app.handle("GET", "/reports/intra")
        memo_before = app.state.payload_stats()
        before = app.state.cache.stats()
        status, payload = app.handle("GET", "/reports/intra")
        after = app.state.cache.stats()
        assert status == 200
        assert app.state.payload_stats()["hits"] > memo_before["hits"]
        assert after["hits"] == before["hits"]
        assert after["misses"] == before["misses"]

    def test_explicit_backend_same_digest(self, app):
        # There is one execution path: a leftover ?backend= parameter
        # is ignored and the payload names no backend.
        _, plain = app.handle("GET", "/reports/intra")
        status, explicit = app.handle(
            "GET", "/reports/intra", {"backend": ["batch"]}
        )
        assert status == 200
        assert "backend" not in explicit
        assert explicit == plain

    def test_every_figure_and_table_served(self, app):
        for fig_id in figure_ids("fig"):
            status, payload = app.handle("GET", f"/figures/{fig_id}")
            assert status == 200, fig_id
            assert payload["id"] == fig_id
            assert payload["digest"]
        for table_id in figure_ids("table"):
            status, payload = app.handle("GET", f"/tables/{table_id}")
            assert status == 200, table_id

    def test_figure_embeds_parent_report_digest(self, app):
        _, report = app.handle("GET", "/reports/intra")
        _, figure = app.handle("GET", "/figures/fig3")
        assert figure["report_digest"] == report["report_digest"]
        assert figure["data"] == report["figures"]["fig3"]


class TestStoredAndExportedCorpora:
    """A stored or exported corpus is served with the CLI's digest."""

    #: The CLI's intra digests at scale 0.25, pinned so that a digest
    #: moving on both sides at once still fails.
    PINNED = {1: "ca7c8dbf2654", 7: "5fa644cd3c54"}

    @pytest.mark.parametrize("seed", sorted(PINNED))
    def test_served_digest_equals_the_cli_digest(self, tmp_path, capsys,
                                                 seed):
        from repro.cli import main

        store, export = str(tmp_path / "store"), str(tmp_path / "sevs.jsonl")
        corpus = ["--seed", str(seed), "--scale", "0.25"]
        assert main(["store", "init", store] + corpus) == 0
        assert main(["store", "compact", store, "--keep-hot-years", "3"]) == 0
        assert main(["export", "sevs", export] + corpus) == 0
        capsys.readouterr()
        digests = []
        for source in (["--store-dir", store], corpus):
            assert main(["report", "intra", "--digest"] + source) == 0
            (line,) = [line for line in capsys.readouterr().out.splitlines()
                       if line.startswith("report_digest:")]
            digests.append(line.split()[1])
        assert digests[0] == digests[1]
        assert digests[0].startswith(self.PINNED[seed])

        # A stored corpus is served as its manifest recorded it,
        # whatever the arguments say; an exported one takes the fleet
        # of the arguments.
        for source in ({"seed": seed + 100, "scale": 1.0, "store_dir": store},
                       {"seed": seed, "scale": 0.25, "corpus_path": export}):
            app = ServeApp(prewarm=False, **source)
            try:
                _, report = app.handle("GET", "/reports/intra")
                _, stats = app.handle("GET", "/stats")
                _, health = app.handle("GET", "/healthz")
            finally:
                app.stop()
            assert report["report_digest"] == digests[0], source
            assert stats["stream"]["events_ingested"] == 559
            assert (health["seed"], health["scale"]) == (seed, 0.25)
            assert health["sev_rows"] == 559


class TestStats:
    def test_stats_shape(self, app):
        app.handle("GET", "/reports/intra")
        status, payload = app.handle("GET", "/stats")
        assert status == 200
        # Prewarm built each study's payload once; reads reuse them.
        assert payload["payloads"]["builds"] == 3
        assert payload["payloads"]["hits"] >= 1
        assert payload["cache"]["hits"] >= 0
        assert payload["cache"]["hit_rate"] <= 1.0
        assert payload["requests"]["GET /reports/intra"] >= 1
        assert payload["jobs"]["workers"] == 2
        assert payload["warmer"]["prewarms"] >= 1

    def test_request_counters_move(self, app):
        _, before = app.handle("GET", "/stats")
        app.handle("GET", "/healthz")
        _, after = app.handle("GET", "/stats")
        assert (after["requests"]["GET /healthz"]
                > before["requests"].get("GET /healthz", 0))


class TestHTTPTransport:
    """The same contract over a real socket."""

    def _get(self, app, path):
        with urllib.request.urlopen(app.url + path) as resp:
            return resp.status, json.loads(resp.read())

    def test_healthz_over_http(self, app):
        status, payload = self._get(app, "/healthz")
        assert status == 200
        assert payload["status"] == "ok"

    def test_report_digest_stable_over_http(self, app):
        status, over_http = self._get(app, "/reports/intra")
        assert status == 200
        _, in_process = app.handle("GET", "/reports/intra")
        assert over_http["report_digest"] == in_process["report_digest"]

    def test_http_404_is_json(self, app):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._get(app, "/bogus")
        assert excinfo.value.code == 404
        assert "error" in json.loads(excinfo.value.read())

    def test_job_submit_over_http(self, app):
        request = urllib.request.Request(
            app.url + "/jobs",
            data=json.dumps({
                "kind": "report",
                "params": {"study": "intra", "seed": SEED, "scale": 0.1},
            }).encode(),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request) as resp:
            assert resp.status == 202
            job = json.loads(resp.read())
        assert app.queue.join(timeout=300)
        status, done = self._get(app, f"/jobs/{job['id']}")
        assert done["status"] == "done"
        status, artifact = self._get(app, f"/artifacts/{job['id']}")
        assert artifact["study"] == "intra"

    def test_bad_job_body_is_400(self, app):
        request = urllib.request.Request(
            app.url + "/jobs", data=b"not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400

        # A JSON body without a kind: the message lists every kind
        # the queue accepts, and nothing else.
        request = urllib.request.Request(
            app.url + "/jobs", data=b"{}",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400
        message = json.loads(excinfo.value.read())["error"]
        kinds = re.search(r'"kind": "([^"]*)"', message).group(1)
        assert tuple(kinds.split("|")) == JOB_KINDS

    def test_each_response_is_one_socket_write(self, app, monkeypatch):
        # A body written after its headers waits in Nagle's algorithm
        # for the client's delayed ACK, about 40 ms on a keep-alive
        # connection.
        writes = []
        real_write = socketserver._SocketWriter.write

        def counted(writer, data):
            writes.append(len(data))
            return real_write(writer, data)

        monkeypatch.setattr(socketserver._SocketWriter, "write", counted)
        conn = http.client.HTTPConnection(app.host, app.port, timeout=60)

        def exchange(method, path, body=None):
            writes.clear()
            conn.request(method, path, body=body)
            response = conn.getresponse()
            payload = json.loads(response.read())
            return response.status, len(writes), payload

        job = json.dumps({
            "kind": "report",
            "params": {"study": "intra", "seed": SEED, "scale": 0.1},
        })
        try:
            seen = [exchange("GET", "/reports/intra")]
            sock = conn.sock
            seen += [exchange("GET", "/figures/fig3"),
                     exchange("GET", "/tables/table4"),
                     exchange("GET", "/nope"),
                     exchange("POST", "/jobs", job)]
            seen.append(exchange("GET", f"/jobs/{seen[-1][2]['id']}"))
            assert conn.sock is sock  # one keep-alive connection
        finally:
            conn.close()
        assert app.queue.join(timeout=300)
        assert [(status, count) for status, count, _ in seen] == [
            (200, 1), (200, 1), (200, 1), (404, 1), (202, 1), (200, 1),
        ]

    def test_http09_request_gets_the_bare_body(self, app):
        # An HTTP/0.9 response has no status line and no headers.
        with socket.create_connection((app.host, app.port),
                                      timeout=30) as sock:
            sock.sendall(b"GET /healthz\r\n\r\n")
            data = b"".join(iter(lambda: sock.recv(65536), b""))
        assert json.loads(data)["status"] == "ok"


class TestConcurrentLoad:
    """Cached reads over HTTP stay correct while a report job runs."""

    ENDPOINTS = ("/reports/intra", "/reports/backbone", "/figures/fig3",
                 "/tables/table2", "/stats", "/healthz")
    READERS, READS_EACH = 4, 6

    def test_readers_alongside_a_report_job(self):
        statuses = []
        record = threading.Lock()
        with ServeApp(seed=SEED, scale=0.1, prewarm=True) as served:
            memo_before = served.state.payload_stats()
            cache_before = served.state.cache.stats()

            def read(worker):
                for i in range(self.READS_EACH):
                    path = self.ENDPOINTS[(worker + i) % len(self.ENDPOINTS)]
                    try:
                        with urllib.request.urlopen(served.url + path,
                                                    timeout=60) as resp:
                            resp.read()
                            status = resp.status
                    except urllib.error.HTTPError as exc:
                        status = exc.code
                    with record:
                        statuses.append(status)

            readers = [threading.Thread(target=read, args=(worker,))
                       for worker in range(self.READERS)]
            for thread in readers:
                thread.start()
            request = urllib.request.Request(
                served.url + "/jobs",
                data=json.dumps({
                    "kind": "report",
                    "params": {"study": "intra", "seed": SEED, "scale": 0.1},
                }).encode(),
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request, timeout=60) as resp:
                assert resp.status == 202
                job_id = json.loads(resp.read())["id"]
            for thread in readers:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in readers)
            assert served.queue.join(timeout=300)
            memo_after = served.state.payload_stats()
            cache_after = served.state.cache.stats()
            job = served.queue.get(job_id)

        assert statuses == [200] * (self.READERS * self.READS_EACH)
        # Every report read reused a built payload: none reached the
        # cache, and the job ran on its own corpus.
        assert memo_after["hits"] > memo_before["hits"]
        assert memo_after["builds"] == memo_before["builds"]
        assert cache_after["hits"] == cache_before["hits"]
        assert cache_after["misses"] == cache_before["misses"]
        assert job.status == "done"
