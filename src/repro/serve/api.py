"""The HTTP API: reliability reports as a long-lived service.

Stdlib only (:class:`http.server.ThreadingHTTPServer`) — no new
runtime dependencies.  The server holds both seeded corpora in memory
behind one shared :class:`~repro.runtime.Executor` path and a shared
:class:`~repro.runtime.cache.ResultCache`, so the first request for a
report folds the corpus once and every repeat request is a cache
lookup: the request path is never O(corpus) after warm-up (the
:mod:`repro.serve.warm` pre-warmer makes even the first request hot).

Endpoints (all JSON):

====================  =================================================
``GET /``             endpoint index
``GET /healthz``      liveness: status, uptime, corpus sizes
``GET /stats``        cache hit/miss counters, request counts, job and
                      stream statistics
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

from repro.runtime import ResultCache
from repro.serve.jobs import JOB_KINDS, JobQueue
from repro.serve.payloads import (
    FIGURES,
    backbone_report_payload,
    build_backbone_context,
    build_intra_context,
    build_survivability_context,
    canonical_json,
    figure_ids,
    intra_report_payload,
    payload_digest,
    survivability_report_payload,
)

__all__ = ["ApiError", "ServeApp", "ServeState"]

PathLike = Union[str, Path]


class ApiError(Exception):
    """An HTTP-mappable request failure."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


class ServeState:
    """The corpora, executor path, and counters behind the endpoints.

    One lock serializes every analysis run (the SQLite store is a
    single shared connection); with the cache warm the critical
    section is a fingerprint + cache lookup, so readers contend for
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
        self.started_at = time.monotonic()
        self._requests: Dict[str, int] = {}
        self._request_lock = threading.Lock()

        from repro.stream import StreamEngine

        #: Live-ingest tail (repro.stream): folded alongside the store
        #: so /stats can answer streaming aggregates for free.
        self.engine = StreamEngine()
        if store_dir is not None:
            # Serve a tiered partitioned store (repro.storage): the
            # manifest's recorded generator parameters supply the
            # fleet model and the cache-fingerprint seed, and the
            # partitioned scan feeds the stream tail like a replay.
            from repro.runtime import RunContext
            from repro.simulation.scenarios import paper_scenario
            from repro.storage import PartitionedSEVStore

            store = PartitionedSEVStore.open(store_dir)
            meta = store.manifest.meta
            self.seed = seed = meta.get("seed", seed)
            self.scale = scale = meta.get("scale", scale)
            self.engine.run(store.records())
            self.intra_context = RunContext(
                store=store,
                fleet=paper_scenario(seed=seed, scale=scale).fleet,
                corpus_seed=seed,
            )
        elif corpus_path is not None:
            # Serve an exported corpus: replay it into a thread-shared
            # store (and through the stream engine, so the live
            # aggregates cover the replayed history too).
            from repro.incidents.store import SEVStore
            from repro.runtime import RunContext
            from repro.simulation.scenarios import paper_scenario
            from repro.stream.sources import replay_file

            store = SEVStore(check_same_thread=False)
            reports = list(replay_file(corpus_path))
            store.insert_many(reports)
            self.engine.run(replay_file(corpus_path))
            self.intra_context = RunContext(
                store=store, fleet=paper_scenario(seed=seed, scale=scale).fleet,
            )
        else:
            self.intra_context = build_intra_context(
                seed=seed, scale=scale, check_same_thread=False
            )
        self.backbone_context = build_backbone_context(seed=backbone_seed)
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
        with self.lock:
            if study == "intra":
                return intra_report_payload(
                    self.intra_context, cache=self.cache
                )
            if study == "backbone":
                return backbone_report_payload(
                    self.backbone_context, cache=self.cache
                )
            if study == "survivability":
                return survivability_report_payload(
                    self.survivability_context, cache=self.cache
                )
        raise ApiError(404, f"unknown study {study!r}; expected "
                            f"'intra', 'backbone', or 'survivability'")

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
        """Fold new SEV events into the served corpus.

        Changes the corpus fingerprint (row count moves), so every
        cached report key rotates; the warmer re-folds the dirty
        analyses off the request path.
        """
        reports = list(reports)
        with self.lock:
            self.intra_context.store.insert_many(reports)
            for report in reports:
                self.engine.ingest(report)
        return len(reports)


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
            "tickets": len(
                state.backbone_context.resolve_tickets().completed()
            ),
        }

    def _stats(self) -> dict:
        state = self.state
        return {
            "uptime_s": round(time.monotonic() - state.started_at, 3),
            "cache": state.cache.stats(),
            "requests": state.request_counts(),
            "jobs": self.queue.stats(),
            "warmer": self.warmer.stats(),
            "stream": {"events_ingested": state.engine.events_ingested},
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
        self.end_headers()
        self.wfile.write(body)

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
