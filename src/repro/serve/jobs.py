"""A checkpointed job queue for expensive serving work.

``POST /jobs`` lands here: report builds, chaos drills, and what-if
grid sweeps (:data:`JOB_KINDS`) are queued as :class:`Job` records,
executed by worker threads, and their outputs published to an artifact
registry under the serve data directory (a grid job additionally
publishes one artifact per lattice cell).  The queue checkpoints its
full state to ``jobs.json`` on every transition (atomic tmp-write +
rename), so a killed server picks its queue back up on restart: jobs
that were ``queued`` or ``running`` when the process died are
re-enqueued and produce artifacts bit-identical to an uninterrupted
run — every job kind is deterministic in its parameters.  A resumed
job whose kind this version no longer runs ends ``failed`` with
``unknown job kind`` and the queue moves on.

Fault sites (:mod:`repro.faultline`):

``serve.worker``
    a job crashes mid-execution.  Recovery mirrors the sharded
    executor's contract: the crashed job is retried once, and a second
    *injected* crash runs a final attempt with the site suppressed —
    so a fault plan can never wedge a job forever.  A real (non-
    injected) second failure marks the job ``failed`` with its error.
``serve.checkpoint``
    the ``jobs.json`` write tears mid-JSON.  Only the tmp file is
    damaged and nothing is published, so the previous checkpoint
    survives and a restart resumes cleanly — at worst it re-runs a
    job whose completion the torn checkpoint failed to record, which
    is safe because artifacts are deterministic and replaced
    atomically.
"""

from __future__ import annotations

import hashlib
import json
import os
import queue
import threading
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.faultline import hooks
from repro.faultline.plan import InjectedFault, JobWorkerCrash

__all__ = ["JOB_KINDS", "Job", "JobQueue"]

PathLike = Union[str, Path]

JOB_KINDS = ("report", "chaos", "grid")

CHECKPOINT_FORMAT = "repro.serve-jobs/1"

#: queued -> running -> done | failed
STATUSES = ("queued", "running", "done", "failed")


@dataclass
class Job:
    """One unit of queued work and its lifecycle record."""

    id: str
    kind: str
    params: dict = field(default_factory=dict)
    status: str = "queued"
    attempts: int = 0
    error: Optional[str] = None
    artifact: Optional[str] = None
    artifact_digest: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "kind": self.kind,
            "params": self.params,
            "status": self.status,
            "attempts": self.attempts,
            "error": self.error,
            "artifact": self.artifact,
            "artifact_digest": self.artifact_digest,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Job":
        return cls(
            id=payload["id"],
            kind=payload["kind"],
            params=dict(payload.get("params", {})),
            status=payload.get("status", "queued"),
            attempts=int(payload.get("attempts", 0)),
            error=payload.get("error"),
            artifact=payload.get("artifact"),
            artifact_digest=payload.get("artifact_digest"),
        )


def execute_job(kind: str, params: dict) -> str:
    """Run one job body; returns the artifact text (canonical JSON).

    Pure in its inputs: a (kind, params) pair always produces the
    same artifact bytes, which is what makes kill/resume safe and
    per-seed artifact digests a verify anchor.
    """
    from repro.serve.payloads import (
        backbone_report_payload,
        build_backbone_context,
        build_intra_context,
        build_survivability_context,
        canonical_json,
        intra_report_payload,
        survivability_report_payload,
    )

    if kind == "report":
        study = params.get("study", "intra")
        seed = int(params.get("seed", 1))
        if study == "backbone":
            context = build_backbone_context(seed=seed)
            payload = backbone_report_payload(context)
        elif study == "survivability":
            context = build_survivability_context(seed=seed)
            payload = survivability_report_payload(context)
        elif study == "intra":
            scale = float(params.get("scale", 1.0))
            context = build_intra_context(seed=seed, scale=scale)
            payload = intra_report_payload(context)
        else:
            raise ValueError(f"unknown report study {study!r}")
        return canonical_json(payload)
    if kind == "chaos":
        from repro.faultline.drills import chaos_suite, report_json

        report = chaos_suite(
            seed=int(params.get("seed", 7)),
            quick=bool(params.get("quick", True)),
            sites=params.get("sites"),
        )
        return report_json(report)
    if kind == "grid":
        from repro.scenarios import GridRunner, GridSpec, spec_from_dict
        from repro.scenarios import preset as load_preset

        if params.get("spec") is not None:
            base = spec_from_dict(params["spec"], source="<job params>")
        else:
            base = load_preset(params.get("preset", "paper"))
        updates = {}
        if params.get("seed") is not None:
            updates["seed"] = int(params["seed"])
        if params.get("scale") is not None:
            updates["scale"] = float(params["scale"])
        if updates:
            base = base.with_updates(**updates)
        axes = params.get("axes")
        if not isinstance(axes, dict) or not axes:
            raise ValueError(
                'grid jobs need params.axes: {"knob.path": [values, ...]}'
            )
        grid = GridSpec(base=base, axes=axes)
        runner = GridRunner()
        return canonical_json(runner.run(grid))
    raise ValueError(f"unknown job kind {kind!r}; expected one of {JOB_KINDS}")


class JobQueue:
    """Worker threads over a JSON-checkpointed job table.

    Construction loads the checkpoint (if any) and re-queues every
    job that had not finished; :meth:`start` spawns the workers and
    begins draining.  All state transitions happen under one lock and
    every transition rewrites the checkpoint, so the on-disk view
    never lags by more than the in-flight transition.
    """

    _SENTINEL = None

    def __init__(self, data_dir: PathLike, workers: int = 2) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self._dir = Path(data_dir)
        self._dir.mkdir(parents=True, exist_ok=True)
        self._artifact_dir = self._dir / "artifacts"
        self._artifact_dir.mkdir(exist_ok=True)
        self._checkpoint = self._dir / "jobs.json"
        self.workers = workers
        self._lock = threading.RLock()
        self._idle = threading.Condition(self._lock)
        self._jobs: Dict[str, Job] = {}
        self._order: List[str] = []
        self._next_id = 1
        self._queue: "queue.Queue[Optional[str]]" = queue.Queue()
        self._threads: List[threading.Thread] = []
        self._started = False
        self._load()

    # -- persistence -------------------------------------------------

    def _load(self) -> None:
        if not self._checkpoint.exists():
            return
        try:
            payload = json.loads(self._checkpoint.read_text())
            if payload.get("format") != CHECKPOINT_FORMAT:
                raise ValueError(
                    f"foreign checkpoint format {payload.get('format')!r}"
                )
            jobs = [Job.from_dict(entry) for entry in payload["jobs"]]
        except (ValueError, KeyError, TypeError) as exc:
            warnings.warn(
                f"ignoring unusable job checkpoint {self._checkpoint}: "
                f"{exc}",
                RuntimeWarning,
                stacklevel=2,
            )
            return
        for job in jobs:
            # A job caught mid-run by the kill goes back to the queue;
            # its artifact write is atomic, so a re-run is safe.
            if job.status == "running":
                job.status = "queued"
            self._jobs[job.id] = job
            self._order.append(job.id)
        self._next_id = int(payload.get("next_id", len(jobs) + 1))

    def _save(self) -> None:
        payload = {
            "format": CHECKPOINT_FORMAT,
            "next_id": self._next_id,
            "jobs": [self._jobs[jid].to_dict() for jid in self._order],
        }
        text = json.dumps(payload, indent=1, sort_keys=True)
        tmp = self._checkpoint.with_name(self._checkpoint.name + ".tmp")
        if hooks.fire("serve.checkpoint"):
            # Torn checkpoint write: the tmp file is damaged, nothing
            # is published, the previous checkpoint stays authoritative.
            tmp.write_text(hooks.torn(text))
            return
        tmp.write_text(text)
        os.replace(tmp, self._checkpoint)

    # -- lifecycle ---------------------------------------------------

    def start(self) -> None:
        """Spawn the workers and enqueue every unfinished job."""
        with self._lock:
            if self._started:
                return
            self._started = True
            pending = [
                jid for jid in self._order
                if self._jobs[jid].status == "queued"
            ]
        for jid in pending:
            self._queue.put(jid)
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._worker, name=f"repro-serve-job-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def stop(self) -> None:
        """Drain-free shutdown: workers exit after their current job."""
        if not self._started:
            return
        for _ in self._threads:
            self._queue.put(self._SENTINEL)
        for thread in self._threads:
            thread.join(timeout=60)
        self._threads = []
        self._started = False

    def join(self, timeout: Optional[float] = None) -> bool:
        """Block until no job is queued or running; True on success."""
        with self._idle:
            return self._idle.wait_for(
                lambda: not any(
                    job.status in ("queued", "running")
                    for job in self._jobs.values()
                ),
                timeout=timeout,
            )

    # -- submission and inspection -----------------------------------

    def submit(self, kind: str, params: Optional[dict] = None) -> Job:
        if kind not in JOB_KINDS:
            raise ValueError(
                f"unknown job kind {kind!r}; expected one of {JOB_KINDS}"
            )
        params = dict(params or {})
        json.dumps(params)  # params must be JSON-able to checkpoint
        with self._lock:
            job = Job(id=f"job-{self._next_id:06d}", kind=kind,
                      params=params)
            self._next_id += 1
            self._jobs[job.id] = job
            self._order.append(job.id)
            self._save()
        if self._started:
            self._queue.put(job.id)
        return job

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> List[Job]:
        with self._lock:
            return [self._jobs[jid] for jid in self._order]

    def stats(self) -> dict:
        with self._lock:
            counts = {status: 0 for status in STATUSES}
            for job in self._jobs.values():
                counts[job.status] += 1
            counts["total"] = len(self._jobs)
            counts["workers"] = self.workers
            return counts

    # -- artifacts ---------------------------------------------------

    def artifact_path(self, artifact_id: str) -> Path:
        if "/" in artifact_id or artifact_id in (".", ".."):
            raise ValueError(f"bad artifact id {artifact_id!r}")
        return self._artifact_dir / f"{artifact_id}.json"

    def read_artifact(self, artifact_id: str) -> Optional[str]:
        path = self.artifact_path(artifact_id)
        if not path.exists():
            return None
        return path.read_text()

    def artifacts(self) -> List[str]:
        return sorted(p.stem for p in self._artifact_dir.glob("*.json"))

    def _publish_artifact(self, artifact_id: str, text: str) -> str:
        """Atomic artifact write; returns the content digest."""
        path = self.artifact_path(artifact_id)
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(text)
        os.replace(tmp, path)
        return hashlib.sha256(text.encode()).hexdigest()

    def _publish_grid_cells(self, job_id: str, text: str) -> None:
        """Publish each grid cell as its own ``<job>-cellNNN`` artifact.

        A grid sweep's comparative report stays the job artifact;
        every lattice cell additionally publishes standalone, so a
        client can fetch one what-if's report record without parsing
        the whole grid.
        """
        from repro.serve.payloads import canonical_json

        report = json.loads(text)
        for cell in report.get("cells", []):
            cell_id = f"{job_id}-cell{cell['cell']:03d}"
            self._publish_artifact(cell_id, canonical_json(cell))

    # -- execution ---------------------------------------------------

    def _worker(self) -> None:
        while True:
            job_id = self._queue.get()
            if job_id is self._SENTINEL:
                return
            try:
                self._run(job_id)
            finally:
                self._queue.task_done()

    def _run(self, job_id: str) -> None:
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.status not in ("queued",):
                return
            job.status = "running"
            job.attempts += 1
            self._save()
        try:
            text = self._execute_resilient(job)
        except Exception as exc:  # a genuinely failed job, recorded
            with self._lock:
                job.status = "failed"
                job.error = f"{type(exc).__name__}: {exc}"
                self._save()
                self._idle.notify_all()
            return
        digest = self._publish_artifact(job.id, text)
        if job.kind == "grid":
            self._publish_grid_cells(job.id, text)
        with self._lock:
            job.status = "done"
            job.error = None
            job.artifact = job.id
            job.artifact_digest = digest
            self._save()
            self._idle.notify_all()

    def _execute_resilient(self, job: Job) -> str:
        """Run a job body, surviving a crashed worker.

        The recovery contract: a crashed execution is retried once; a
        second *injected* crash runs a final attempt with the
        ``serve.worker`` site suppressed (so chaos plans always
        converge to the fault-free artifact); a second real failure
        propagates and marks the job failed.
        """
        last: Optional[Exception] = None
        for _ in range(2):
            try:
                if hooks.fire("serve.worker"):
                    raise JobWorkerCrash("injected job-worker crash")
                return execute_job(job.kind, job.params)
            except Exception as exc:
                last = exc
                with self._lock:
                    job.attempts += 1
        if isinstance(last, InjectedFault):
            with hooks.suppressed("serve.worker"):
                return execute_job(job.kind, job.params)
        assert last is not None
        raise last
