"""The HTTP API: reliability reports as a long-lived service.

Stdlib only (:class:`http.server.ThreadingHTTPServer`) — no new
runtime dependencies.  The server holds the seeded corpora in memory
and keeps each study's finished report payload for as long as its
corpus is unchanged: the first request for a report folds the corpus
once (through one shared :class:`~repro.runtime.Executor` path and
:class:`~repro.runtime.cache.ResultCache`) and builds the payload, and
every repeat request is one dict lookup, answered in one socket write.
The :mod:`repro.serve.warm` pre-warmer builds every payload at start-up,
so even the first request is hot; an ingest drops the intra payload,
and the next read or refold rebuilds it.

Endpoints (all JSON):

====================  =================================================
``GET /``             endpoint index
``GET /healthz``      liveness: status, uptime, corpus sizes
``GET /stats``        payload builds and hits, cache hit/miss counters,
                      request counts, job statistics, rows ingested
``GET /reports/intra``     the intra study
``GET /reports/backbone``  the backbone study
``GET /reports/survivability``  correlated-failure survivability curves
``GET /figures/<id>``      one figure (``fig3`` ... ``fig18``)
``GET /tables/<id>``       one table (``table2``, ``table4``)
``POST /jobs``        submit ``{"kind": K, "params": {}}``, ``K`` one of
                      :data:`~repro.serve.jobs.JOB_KINDS`
``GET /jobs``         list jobs; ``GET /jobs/<id>`` one job
``GET /artifacts/<id>``    a finished job's artifact document
====================  =================================================

Report payloads embed the canonical ``report_digest`` of the
underlying report dataclass, bit-identical to what the CLI computes
for the same corpus+seed (``python -m repro report ... --digest``).
"""

from __future__ import annotations

import json
import tempfile
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union
from urllib.parse import parse_qs, urlsplit

from repro.runtime import (
    ResultCache,
    build_backbone_context,
    build_intra_context,
)
from repro.serve.jobs import JOB_KINDS, JobQueue
from repro.serve.payloads import (
    FIGURES,
    backbone_report_payload,
    canonical_json,
    figure_ids,
    intra_report_payload,
    payload_digest,
    survivability_report_payload,
)
from repro.survivability import build_survivability_context

__all__ = ["ApiError", "ServeApp", "ServeState"]

PathLike = Union[str, Path]


class ApiError(Exception):
    """An HTTP-mappable request failure."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


class ServeState:
    """The corpora, payload memo, and counters behind the endpoints.

    One lock serializes every analysis run and every write (the SQLite
    store is a single shared connection).  Each study's report payload
    is built once per corpus generation and kept; a read of a built
    payload is a dict lookup under the lock, so readers contend for
    microseconds, not corpus passes.
    """

    def __init__(
        self,
        seed: int = 1,
        scale: float = 1.0,
        backbone_seed: int = 7,
        cache_dir: Optional[PathLike] = None,
        corpus_path: Optional[PathLike] = None,
        store_dir: Optional[PathLike] = None,
    ) -> None:
        self.seed = seed
        self.scale = scale
        self.backbone_seed = backbone_seed
        self.lock = threading.Lock()
        self.cache = ResultCache(cache_dir)
        # study -> finished report payload, for the corpus as it is now.
        self._payloads: Dict[str, dict] = {}
        self._payload_builds = 0
        self._payload_hits = 0
        self.started_at = time.monotonic()
        self._requests: Dict[str, int] = {}
        self._request_lock = threading.Lock()

        #: SEV rows the served corpus took in: a stored or exported
        #: corpus counts its rows at start-up, and every ingest adds
        #: its own (``/stats`` ``stream.events_ingested``).
        self.events_ingested = 0
        if corpus_path is not None and store_dir is None:
            # Serve an exported corpus: replay it into a thread-shared
            # store, modelled by the fleet of the given seed and scale.
            from repro.incidents.store import SEVStore
            from repro.io import read_records
            from repro.runtime import RunContext
            from repro.simulation.scenarios import paper_scenario

            store = SEVStore(check_same_thread=False)
            self.events_ingested = store.insert_many(
                read_records(corpus_path, "sevs"))
            fleet = paper_scenario(seed=seed, scale=scale).fleet
            self.intra_context = RunContext(store=store, fleet=fleet)
        else:
            # A generated corpus goes into a thread-shared SEV store:
            # ingests rely on its ``sev_id`` primary key and CHECK
            # constraints.
            from repro.incidents.store import SEVStore

            self.intra_context = build_intra_context(
                seed=seed, scale=scale, store_dir=store_dir,
                store=(SEVStore(check_same_thread=False)
                       if store_dir is None else None),
            )
            if store_dir is not None:
                # A stored corpus is the one its manifest recorded.
                store = self.intra_context.store
                self.seed = self.intra_context.corpus_seed
                self.scale = store.manifest.meta.get("scale", scale)
                self.events_ingested = len(store)
        self.backbone_context = build_backbone_context(seed=backbone_seed)
        # Generate now, not on a first read: /healthz counts the rows,
        # and handler threads must never race to build a corpus.
        self.intra_context.generate()
        self.backbone_context.generate()
        self.survivability_context = build_survivability_context(
            seed=self.seed
        )

    # -- accounting --------------------------------------------------

    def count_request(self, route: str) -> None:
        with self._request_lock:
            self._requests[route] = self._requests.get(route, 0) + 1

    def request_counts(self) -> Dict[str, int]:
        with self._request_lock:
            return dict(sorted(self._requests.items()))

    # -- payloads ----------------------------------------------------

    def report_payload(self, study: str) -> dict:
        """The study's report payload, built once per corpus generation.

        The first call folds the corpus through the shared cache and
        keeps the finished dict; every later call returns that same
        dict until :meth:`ingest` drops it.  Payloads are shared and
        read-only, as :class:`~repro.runtime.cache.ResultCache` values
        are: callers slice them and must not mutate them.
        """
        if study == "intra":
            build, context = intra_report_payload, self.intra_context
        elif study == "backbone":
            build, context = backbone_report_payload, self.backbone_context
        elif study == "survivability":
            build = survivability_report_payload
            context = self.survivability_context
        else:
            raise ApiError(404, f"unknown study {study!r}; expected "
                                f"'intra', 'backbone', or 'survivability'")
        with self.lock:
            payload = self._payloads.get(study)
            if payload is None:
                payload = build(context, cache=self.cache)
                self._payloads[study] = payload
                self._payload_builds += 1
            else:
                self._payload_hits += 1
            return payload

    def payload_stats(self) -> Dict[str, int]:
        """How many reads built a report payload and how many reused one."""
        with self.lock:
            return {"builds": self._payload_builds,
                    "hits": self._payload_hits}

    def figure_payload(self, fig_id: str) -> dict:
        entry = FIGURES.get(fig_id)
        if entry is None:
            raise ApiError(
                404,
                f"unknown figure/table id {fig_id!r}; "
                f"known ids: {', '.join(figure_ids())}",
            )
        study, title, _ = entry
        report = self.report_payload(study)
        data = report["figures"][fig_id]
        return {
            "id": fig_id,
            "study": study,
            "title": title,
            "data": data,
            "digest": payload_digest(data),
            "report_digest": report["report_digest"],
        }

    def ingest(self, reports) -> int:
        """Insert new SEV events into the served corpus; returns the count.

        Drops the intra payload and changes the corpus fingerprint (the
        write drops a generated corpus' provenance key, and the row
        count moves), so every cached intra report key rotates; the
        warmer re-folds the dirty analyses off the request path.
        """
        with self.lock:
            count = self.intra_context.store.insert_many(reports)
            self._payloads.pop("intra", None)
            self.events_ingested += count
        return count


class ServeApp:
    """The assembled service: state + job queue + warmer + HTTP server."""

    def __init__(
        self,
        seed: int = 1,
        scale: float = 1.0,
        backbone_seed: int = 7,
        host: str = "127.0.0.1",
        port: int = 0,
        data_dir: Optional[PathLike] = None,
        job_workers: int = 2,
        prewarm: bool = True,
        corpus_path: Optional[PathLike] = None,
        store_dir: Optional[PathLike] = None,
    ) -> None:
        self._tmp: Optional[tempfile.TemporaryDirectory] = None
        if data_dir is None:
            self._tmp = tempfile.TemporaryDirectory(prefix="repro-serve-")
            data_dir = self._tmp.name
        self.data_dir = Path(data_dir)
        self.host = host
        self._requested_port = port
        self.prewarm = prewarm
        self.state = ServeState(
            seed=seed, scale=scale, backbone_seed=backbone_seed,
            cache_dir=self.data_dir / "cache",
            corpus_path=corpus_path, store_dir=store_dir,
        )
        self.queue = JobQueue(self.data_dir, workers=job_workers)

        from repro.serve.warm import CacheWarmer

        self.warmer = CacheWarmer(self.state)
        self._server: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle ---------------------------------------------------

    @property
    def port(self) -> int:
        if self._server is None:
            return self._requested_port
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ServeApp":
        """Warm the cache, start the workers, bind, serve in background."""
        if self._server is not None:
            return self
        self.queue.start()
        if self.prewarm:
            self.warmer.prewarm()
        app = self

        class _Handler(_RequestHandler):
            serve_app = app

        self._server = ThreadingHTTPServer(
            (self.host, self._requested_port), _Handler
        )
        self._server.daemon_threads = True
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-serve-http", daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Foreground mode for the CLI: blocks until shutdown."""
        self.start()
        assert self._thread is not None
        self._thread.join()

    def stop(self) -> None:
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
            self._thread = None
        self.queue.stop()
        if self._tmp is not None:
            self._tmp.cleanup()
            self._tmp = None

    def __enter__(self) -> "ServeApp":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- request dispatch (transport-independent, testable) ----------

    def handle(
        self,
        method: str,
        path: str,
        query: Optional[Dict[str, List[str]]] = None,
        body: Optional[bytes] = None,
    ) -> Tuple[int, dict]:
        """Route one request; returns ``(status, JSON payload)``.

        ``query`` carries the parsed query string; no endpoint reads
        one, so unknown parameters are ignored.
        """
        parts = [part for part in path.split("/") if part]
        route = "/" + "/".join(parts[:2])
        self.state.count_request(f"{method} {route or '/'}")
        try:
            return self._dispatch(method, parts, body)
        except ApiError as exc:
            return exc.status, {"error": exc.message}

    def _dispatch(self, method, parts, body) -> Tuple[int, dict]:
        if method not in ("GET", "POST"):
            raise ApiError(405, f"method {method} not allowed")
        if not parts:
            return 200, self._index()
        head = parts[0]
        if method == "POST":
            if head == "jobs" and len(parts) == 1:
                return self._submit_job(body)
            raise ApiError(405, f"POST not allowed on /{'/'.join(parts)}")
        if head == "healthz" and len(parts) == 1:
            return 200, self._healthz()
        if head == "stats" and len(parts) == 1:
            return 200, self._stats()
        if head == "reports" and len(parts) == 2:
            return 200, self.state.report_payload(parts[1])
        if head in ("figures", "tables") and len(parts) == 2:
            prefix = "fig" if head == "figures" else "table"
            if not parts[1].startswith(prefix):
                raise ApiError(
                    404,
                    f"/{head}/ serves {prefix}* ids; "
                    f"known: {', '.join(figure_ids(prefix))}",
                )
            return 200, self.state.figure_payload(parts[1])
        if head == "jobs":
            if len(parts) == 1:
                return 200, {
                    "jobs": [job.to_dict() for job in self.queue.jobs()],
                    "stats": self.queue.stats(),
                }
            if len(parts) == 2:
                job = self.queue.get(parts[1])
                if job is None:
                    raise ApiError(404, f"no job {parts[1]!r}")
                return 200, job.to_dict()
        if head == "artifacts" and len(parts) == 2:
            try:
                text = self.queue.read_artifact(parts[1])
            except ValueError as exc:
                raise ApiError(400, str(exc))
            if text is None:
                raise ApiError(404, f"no artifact {parts[1]!r}")
            return 200, json.loads(text)
        raise ApiError(404, f"no route for /{'/'.join(parts)}")

    def _index(self) -> dict:
        return {
            "service": "repro.serve",
            "endpoints": [
                "GET /healthz", "GET /stats",
                "GET /reports/intra", "GET /reports/backbone",
                "GET /reports/survivability",
                *(f"GET /figures/{i}" for i in figure_ids("fig")),
                *(f"GET /tables/{i}" for i in figure_ids("table")),
                "POST /jobs", "GET /jobs", "GET /jobs/<id>",
                "GET /artifacts/<id>",
            ],
        }

    def _healthz(self) -> dict:
        state = self.state
        return {
            "status": "ok",
            "uptime_s": round(time.monotonic() - state.started_at, 3),
            "seed": state.seed,
            "backbone_seed": state.backbone_seed,
            "scale": state.scale,
            "sev_rows": len(state.intra_context.store),
            "tickets": len(state.backbone_context.tickets.completed()),
        }

    def _stats(self) -> dict:
        state = self.state
        return {
            "uptime_s": round(time.monotonic() - state.started_at, 3),
            "payloads": state.payload_stats(),
            "cache": state.cache.stats(),
            "requests": state.request_counts(),
            "jobs": self.queue.stats(),
            "warmer": self.warmer.stats(),
            "stream": {"events_ingested": state.events_ingested},
        }

    def _submit_job(self, body: Optional[bytes]) -> Tuple[int, dict]:
        try:
            payload = json.loads(body or b"{}")
        except json.JSONDecodeError as exc:
            raise ApiError(400, f"request body is not JSON: {exc}")
        if not isinstance(payload, dict) or "kind" not in payload:
            raise ApiError(400, "expected " + json.dumps(
                {"kind": "|".join(JOB_KINDS), "params": {}}
            ))
        params = payload.get("params", {})
        if not isinstance(params, dict):
            raise ApiError(400, "params must be an object")
        try:
            job = self.queue.submit(payload["kind"], params)
        except ValueError as exc:
            raise ApiError(400, str(exc))
        return 202, job.to_dict()


class _RequestHandler(BaseHTTPRequestHandler):
    """Thin transport shim over :meth:`ServeApp.handle`."""

    serve_app: ServeApp  # bound by the per-app subclass in start()
    protocol_version = "HTTP/1.1"

    # The default handler logs every request to stderr; a load test
    # would drown the terminal.
    def log_message(self, format, *args):  # noqa: A002 - stdlib name
        pass

    def _respond(self, status: int, payload: dict) -> None:
        body = canonical_json(payload).encode() + b"\n"
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.request_version == "HTTP/0.9":  # no headers: a bare body
            self.wfile.write(body)
            return
        # The blank line and the body join the buffered headers, so the
        # whole response goes out in one write.  Written on its own, a
        # small body waits in Nagle's algorithm for the client's delayed
        # ACK: about 40 ms on a keep-alive connection.
        self._headers_buffer.extend((b"\r\n", body))
        self.flush_headers()

    def _handle(self, method: str) -> None:
        parsed = urlsplit(self.path)
        body = None
        if method == "POST":
            length = int(self.headers.get("Content-Length") or 0)
            body = self.rfile.read(length) if length else b""
        try:
            status, payload = self.serve_app.handle(
                method, parsed.path, parse_qs(parsed.query), body
            )
        except Exception as exc:  # never tear down a worker thread
            status, payload = 500, {
                "error": f"{type(exc).__name__}: {exc}"
            }
        self._respond(status, payload)

    def do_GET(self) -> None:
        self._handle("GET")

    def do_POST(self) -> None:
        self._handle("POST")
