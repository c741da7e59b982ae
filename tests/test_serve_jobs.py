"""The checkpointed job queue: lifecycle, kill/resume, and faults.

The acceptance contract: submit -> checkpoint -> kill the server ->
restart -> the job resumes and its artifact digest is bit-identical
to an uninterrupted run — including under a faultline plan firing the
``serve.worker`` and ``serve.checkpoint`` sites.
"""

from __future__ import annotations

import gc
import json
import sqlite3

import pytest

from repro.faultline import FaultPlan, FaultSpec, injected
from repro.serve import Job, JobQueue, execute_job
from repro.serve.jobs import CHECKPOINT_FORMAT

REPORT_PARAMS = {"study": "intra", "seed": 1, "scale": 0.1}


def run_to_completion(queue, timeout=300):
    queue.start()
    assert queue.join(timeout=timeout)
    queue.stop()


class TestLifecycle:
    def test_submit_execute_artifact(self, tmp_path):
        queue = JobQueue(tmp_path, workers=1)
        queue.start()
        job = queue.submit("report", REPORT_PARAMS)
        assert job.status == "queued"
        assert queue.join(timeout=300)
        queue.stop()
        done = queue.get(job.id)
        assert done.status == "done"
        assert done.attempts == 1
        assert done.artifact == job.id
        assert done.artifact_digest
        artifact = json.loads(queue.read_artifact(job.id))
        assert artifact["study"] == "intra"
        assert job.id in queue.artifacts()

    def test_unknown_kind_rejected(self, tmp_path):
        queue = JobQueue(tmp_path, workers=1)
        with pytest.raises(ValueError, match="unknown job kind"):
            queue.submit("mine-bitcoin")

    def test_unserializable_params_rejected(self, tmp_path):
        queue = JobQueue(tmp_path, workers=1)
        with pytest.raises(TypeError):
            queue.submit("report", {"study": object()})

    def test_failed_job_records_error(self, tmp_path):
        queue = JobQueue(tmp_path, workers=1)
        job = queue.submit("report", {"study": "not-a-study"})
        run_to_completion(queue, timeout=60)
        failed = queue.get(job.id)
        assert failed.status == "failed"
        assert "not-a-study" in failed.error
        assert failed.artifact_digest is None

    def test_artifact_ids_cannot_escape_registry(self, tmp_path):
        queue = JobQueue(tmp_path, workers=1)
        for bad in ("../evil", "a/b", ".", ".."):
            with pytest.raises(ValueError, match="bad artifact id"):
                queue.artifact_path(bad)

    def test_stats_counts_statuses(self, tmp_path):
        queue = JobQueue(tmp_path, workers=1)
        queue.submit("report", REPORT_PARAMS)
        queue.submit("report", {"study": "bogus"})
        run_to_completion(queue)
        stats = queue.stats()
        assert stats["done"] == 1
        assert stats["failed"] == 1
        assert stats["total"] == 2


class TestStoresClosed:
    """A job closes every SQLite store it builds.

    An unclosed ``sqlite3.Connection`` sits in a reference cycle with
    its statement cache, so its database stays allocated until the
    next full collection: in a long-lived server, jobs would grow the
    heap.  Under ``DEBUG_SAVEALL`` the collector keeps what it would
    have freed, so the connections a job left behind can be counted.
    """

    @pytest.mark.parametrize("kind, params", [
        ("report", REPORT_PARAMS),
        ("grid", {"seed": 1, "scale": 0.05,
                  "axes": {"fabric_year": [2015, 2016]}}),
        ("chaos", {"seed": 7, "quick": True}),
    ], ids=["report", "grid", "chaos"])
    def test_job_leaves_no_connection_to_the_collector(self, kind, params):
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            execute_job(kind, params)
            gc.collect()
            leaked = sum(isinstance(obj, sqlite3.Connection)
                         for obj in gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert leaked == 0


class TestKillResume:
    def test_submit_kill_restart_resumes_bit_identical(self, tmp_path):
        killed_dir = tmp_path / "killed"
        control_dir = tmp_path / "control"

        # Submit, checkpoint — then "kill the server" (the queue is
        # never started, exactly the state a SIGKILL after submit
        # leaves on disk).
        first = JobQueue(killed_dir, workers=1)
        job = first.submit("report", REPORT_PARAMS)
        assert (killed_dir / "jobs.json").exists()

        # Restart: a fresh queue over the same data dir resumes it.
        restarted = JobQueue(killed_dir, workers=1)
        assert restarted.get(job.id).status == "queued"
        run_to_completion(restarted)
        resumed = restarted.get(job.id)
        assert resumed.status == "done"

        # The uninterrupted control run.
        control = JobQueue(control_dir, workers=1)
        control_job = control.submit("report", REPORT_PARAMS)
        run_to_completion(control)
        assert (control.get(control_job.id).artifact_digest
                == resumed.artifact_digest)

    def test_running_job_requeued_on_restart(self, tmp_path):
        queue = JobQueue(tmp_path, workers=1)
        job = queue.submit("report", REPORT_PARAMS)
        # Forge a checkpoint caught mid-run: the job was "running"
        # when the process died.
        with queue._lock:
            queue._jobs[job.id].status = "running"
            queue._save()
        restarted = JobQueue(tmp_path, workers=1)
        assert restarted.get(job.id).status == "queued"
        run_to_completion(restarted)
        assert restarted.get(job.id).status == "done"

    def test_corrupt_checkpoint_tolerated(self, tmp_path):
        queue = JobQueue(tmp_path, workers=1)
        queue.submit("report", REPORT_PARAMS)
        (tmp_path / "jobs.json").write_text("{torn")
        with pytest.warns(RuntimeWarning, match="unusable job checkpoint"):
            fresh = JobQueue(tmp_path, workers=1)
        assert fresh.jobs() == []

    def test_foreign_checkpoint_format_refused(self, tmp_path):
        (tmp_path / "jobs.json").write_text(
            json.dumps({"format": "other/9", "jobs": []})
        )
        with pytest.warns(RuntimeWarning, match="foreign checkpoint"):
            JobQueue(tmp_path, workers=1)

    def test_ids_continue_after_restart(self, tmp_path):
        first = JobQueue(tmp_path, workers=1)
        a = first.submit("report", REPORT_PARAMS)
        restarted = JobQueue(tmp_path, workers=1)
        b = restarted.submit("report", REPORT_PARAMS)
        assert a.id != b.id

    def test_resumed_job_of_a_retired_kind_cannot_wedge_the_queue(
            self, tmp_path):
        # A checkpoint written by a server that still ran "bench" jobs:
        # one is queued ahead of a report job when the server upgrades.
        upgraded = tmp_path / "upgraded"
        upgraded.mkdir()
        (upgraded / "jobs.json").write_text(json.dumps({
            "format": CHECKPOINT_FORMAT,
            "next_id": 3,
            "jobs": [
                Job(id="job-000001", kind="bench",
                    params={"scale": 0.25}).to_dict(),
                Job(id="job-000002", kind="report",
                    params=REPORT_PARAMS).to_dict(),
            ],
        }))
        restarted = JobQueue(upgraded, workers=1)
        run_to_completion(restarted)
        retired = restarted.get("job-000001")
        assert retired.status == "failed"
        assert "unknown job kind 'bench'" in retired.error
        resumed = restarted.get("job-000002")
        assert resumed.status == "done"

        control = JobQueue(tmp_path / "control", workers=1)
        control_job = control.submit("report", REPORT_PARAMS)
        run_to_completion(control)
        assert (control.get(control_job.id).artifact_digest
                == resumed.artifact_digest)


class TestFaultline:
    def test_worker_crash_retried_once(self, tmp_path):
        plan = FaultPlan(3, [
            FaultSpec("serve.worker", probability=1.0, max_fires=1),
        ])
        with injected(plan):
            queue = JobQueue(tmp_path, workers=1)
            job = queue.submit("report", REPORT_PARAMS)
            run_to_completion(queue)
        done = queue.get(job.id)
        assert done.status == "done"
        assert done.attempts == 2
        assert plan.fired("serve.worker") == 1

    def test_unbounded_worker_crashes_still_converge(self, tmp_path):
        """A chaos plan can never wedge a job: the final attempt runs
        with the site suppressed."""
        plan = FaultPlan(3, [
            FaultSpec("serve.worker", probability=1.0, max_fires=None),
        ])
        with injected(plan):
            queue = JobQueue(tmp_path, workers=1)
            job = queue.submit("report", REPORT_PARAMS)
            run_to_completion(queue)
        assert queue.get(job.id).status == "done"

    def test_torn_checkpoint_resumes_bit_identical(self, tmp_path):
        faulty_dir = tmp_path / "faulty"
        control_dir = tmp_path / "control"

        control = JobQueue(control_dir, workers=1)
        control_job = control.submit("report", REPORT_PARAMS)
        run_to_completion(control)
        expected = control.get(control_job.id).artifact_digest

        queue = JobQueue(faulty_dir, workers=1)
        job = queue.submit("report", REPORT_PARAMS)  # good checkpoint
        plan = FaultPlan(5, [
            FaultSpec("serve.checkpoint", probability=1.0, max_fires=None),
        ])
        with injected(plan):
            run_to_completion(queue)
        assert queue.get(job.id).status == "done"
        assert plan.fired("serve.checkpoint") > 0

        # Every in-run checkpoint tore, so on disk the job is still
        # queued; the restart re-runs it to the identical artifact.
        restarted = JobQueue(faulty_dir, workers=1)
        assert restarted.get(job.id).status == "queued"
        run_to_completion(restarted)
        final = restarted.get(job.id)
        assert final.status == "done"
        assert final.artifact_digest == expected

    def test_fault_plan_and_kill_combined(self, tmp_path):
        """The acceptance drill: faults + kill + restart, digests equal."""
        faulty_dir = tmp_path / "faulty"
        control_dir = tmp_path / "control"

        control = JobQueue(control_dir, workers=1)
        control_job = control.submit("report", REPORT_PARAMS)
        run_to_completion(control)
        expected = control.get(control_job.id).artifact_digest

        plan = FaultPlan(11, [
            FaultSpec("serve.worker", probability=0.5, max_fires=2),
            FaultSpec("serve.checkpoint", probability=0.5, max_fires=2),
        ])
        queue = JobQueue(faulty_dir, workers=1)
        job = queue.submit("report", REPORT_PARAMS)
        with injected(plan):
            run_to_completion(queue)
        restarted = JobQueue(faulty_dir, workers=1)
        run_to_completion(restarted)
        final = restarted.get(job.id)
        assert final.status == "done"
        assert final.artifact_digest == expected
