"""repro.serve — reliability reports as a long-lived HTTP service.

The offline pipeline answers questions by re-running the study; this
package keeps the answers resident.  Stdlib only
(:class:`http.server.ThreadingHTTPServer` — no new runtime deps):

:mod:`~repro.serve.api`
    the HTTP API — every CLI report (intra, backbone, per-figure,
    per-table) as JSON, each study's payload built once per corpus
    generation (through a shared
    :class:`~repro.runtime.cache.ResultCache`) so a repeat query is one
    dict lookup; plus ``/healthz``, ``/stats``, and the job endpoints.
:mod:`~repro.serve.jobs`
    a checkpointed job queue — ``POST /jobs`` accepts report builds,
    chaos drills, and what-if grid sweeps (``JOB_KINDS``); worker
    threads execute them and publish artifacts; job state is
    JSON-checkpointed so a killed server resumes its queue on restart.
:mod:`~repro.serve.warm`
    a pre-warmer — builds every study's payload at startup and tails a
    live SEV source into the served store, rebuilding the intra payload
    so the request path is never O(corpus).
:mod:`~repro.serve.payloads`
    the JSON the service speaks — each report payload embeds the
    canonical ``report_digest`` so HTTP and CLI answers are comparable
    with one string.

The service and the CLI's ``report`` commands build every study's
context with the same builders, which live beside the runners they
feed: :func:`~repro.runtime.build_intra_context` and
:func:`~repro.runtime.build_backbone_context` in
:mod:`repro.runtime.executor`, and
:func:`~repro.survivability.build_survivability_context` in
:mod:`repro.survivability.analysis`.  They are re-exported here.  A
generated intra corpus goes into memory for the CLI and into a SEV
store (``store=``) for the service, whose served corpus takes ingests
and whose report and grid jobs fold with SQLite beside the request
threads; both digest alike.

Entry point: ``python -m repro serve --port 8351``.
"""

from repro.runtime import build_backbone_context, build_intra_context
from repro.serve.api import ApiError, ServeApp, ServeState
from repro.serve.jobs import JOB_KINDS, Job, JobQueue, execute_job
from repro.serve.payloads import (
    FIGURES,
    backbone_report_payload,
    canonical_json,
    figure_ids,
    intra_report_payload,
    payload_digest,
)
from repro.serve.warm import CacheWarmer
from repro.survivability import build_survivability_context

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
    "build_survivability_context",
    "canonical_json",
    "execute_job",
    "figure_ids",
    "intra_report_payload",
    "payload_digest",
]
