"""repro.serve — reliability reports as a long-lived HTTP service.

The offline pipeline answers questions by re-running the study; this
package keeps the answers resident.  Stdlib only
(:class:`http.server.ThreadingHTTPServer` — no new runtime deps):

:mod:`~repro.serve.api`
    the HTTP API — every CLI report (intra, backbone, per-figure,
    per-table) as JSON through a shared
    :class:`~repro.runtime.cache.ResultCache`, so repeat queries are
    cache hits; plus ``/healthz``, ``/stats``, and the job endpoints.
:mod:`~repro.serve.jobs`
    a checkpointed job queue — ``POST /jobs`` accepts report builds,
    chaos drills, and what-if grid sweeps (``JOB_KINDS``); worker
    threads execute them and publish artifacts; job state is
    JSON-checkpointed so a killed server resumes its queue on restart.
:mod:`~repro.serve.warm`
    a cache pre-warmer — folds both studies at startup and tails the
    :mod:`repro.stream` engine, re-folding dirty analyses so the
    request path is never O(corpus).
:mod:`~repro.serve.payloads`
    the JSON the service speaks — payload builders shared with the
    CLI's ``report --digest``, each embedding the canonical
    ``report_digest`` so HTTP and CLI answers are comparable with one
    string.

Entry point: ``python -m repro serve --port 8351``.
"""

from repro.serve.api import ApiError, ServeApp, ServeState
from repro.serve.jobs import JOB_KINDS, Job, JobQueue, execute_job
from repro.serve.payloads import (
    FIGURES,
    backbone_report_payload,
    build_backbone_context,
    build_intra_context,
    canonical_json,
    figure_ids,
    intra_report_payload,
    payload_digest,
)
from repro.serve.warm import CacheWarmer

__all__ = [
    "ApiError",
    "CacheWarmer",
    "FIGURES",
    "JOB_KINDS",
    "Job",
    "JobQueue",
    "ServeApp",
    "ServeState",
    "backbone_report_payload",
    "build_backbone_context",
    "build_intra_context",
    "canonical_json",
    "execute_job",
    "figure_ids",
    "intra_report_payload",
    "payload_digest",
]
