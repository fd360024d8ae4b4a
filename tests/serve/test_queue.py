"""Job-queue edge cases: concurrency, cancellation, timeout, capacity."""

from __future__ import annotations

import gc
import threading
import time
import weakref

import pytest

from repro.serve.jobs import (
    CANCELLED,
    DONE,
    FAILED,
    PENDING,
    RUNNING,
    TIMEOUT,
    JobCancelled,
    JobNotFound,
    JobQueue,
    JobTimeout,
    QueueFull,
)


class Blocker:
    """A job body that parks until released, checking in on demand."""

    def __init__(self):
        self.release = threading.Event()
        self.entered = threading.Event()

    def __call__(self, ctx):
        self.entered.set()
        while not self.release.wait(0.005):
            ctx.check()
        ctx.check()
        return "released"


class Captured:
    """Stands in for the request a job's closure captures (its instance)."""


def submit_capturing(queue, body, **kwargs):
    """Submit ``body(ctx, captured)`` over a fresh :class:`Captured`.

    Returns the job and a weak reference to the captured object; the
    job's closure holds the only strong reference.
    """
    captured = Captured()
    job = queue.submit(lambda ctx: body(ctx, captured), **kwargs)
    return job, weakref.ref(captured)


def collected(ref) -> bool:
    gc.collect()
    return ref() is None


class TestBasics:
    def test_submit_runs_and_returns_result(self):
        with JobQueue(workers=1) as queue:
            job = queue.submit(lambda ctx: 41 + 1)
            assert job.wait(5.0)
            assert job.state == DONE
            assert job.result == 42
            names = [e["name"] for e in job.events_since()]
            assert names[0] == "job.submitted"
            assert names[-1] == "job.done"

    def test_failure_is_captured_not_raised(self):
        with JobQueue(workers=1) as queue:
            def boom(ctx):
                raise ValueError("planned failure")

            job = queue.submit(boom)
            assert job.wait(5.0)
            assert job.state == FAILED
            assert isinstance(job.error, ValueError)
            snapshot = job.snapshot()
            assert snapshot["error"]["type"] == "ValueError"
            # The worker survived: the queue still runs jobs.
            assert queue.submit(lambda ctx: "ok").wait(5.0)

    def test_lookup_unknown_job(self):
        with JobQueue(workers=1) as queue:
            with pytest.raises(JobNotFound):
                queue.get("job-999999")

    def test_sequential_ids(self):
        with JobQueue(workers=1) as queue:
            first = queue.submit(lambda ctx: None)
            second = queue.submit(lambda ctx: None)
            assert first.id == "job-000001"
            assert second.id == "job-000002"


class TestConcurrency:
    def test_concurrent_submits_all_complete(self):
        """Many threads submitting at once: every job runs exactly once."""
        results = []
        lock = threading.Lock()

        def make(value):
            def fn(ctx):
                with lock:
                    results.append(value)
                return value

            return fn

        with JobQueue(workers=4, max_pending=256) as queue:
            jobs = []
            submitters = []

            def submit_batch(base):
                for offset in range(25):
                    jobs.append(queue.submit(make(base + offset)))

            for base in (0, 100, 200, 300):
                thread = threading.Thread(target=submit_batch, args=(base,))
                submitters.append(thread)
                thread.start()
            for thread in submitters:
                thread.join()
            assert len(jobs) == 100
            for job in jobs:
                assert job.wait(10.0), f"{job.id} never finished"
                assert job.state == DONE
        assert sorted(results) == sorted(
            base + offset for base in (0, 100, 200, 300) for offset in range(25)
        )

    def test_worker_bound_limits_parallelism(self):
        """With one worker, a second job cannot start until the first ends."""
        first, second = Blocker(), Blocker()
        with JobQueue(workers=1) as queue:
            job1 = queue.submit(first)
            job2 = queue.submit(second)
            assert first.entered.wait(5.0)
            time.sleep(0.02)
            assert job2.state == PENDING
            assert not second.entered.is_set()
            first.release.set()
            assert job1.wait(5.0) and job1.state == DONE
            assert second.entered.wait(5.0)
            second.release.set()
            assert job2.wait(5.0) and job2.state == DONE


class TestCancellation:
    def test_cancel_pending_job_never_runs(self):
        blocker = Blocker()
        with JobQueue(workers=1) as queue:
            running = queue.submit(blocker)
            queued = queue.submit(lambda ctx: "should not run")
            assert blocker.entered.wait(5.0)
            assert queue.cancel(queued.id) is True
            assert queued.state == CANCELLED  # immediate, no worker involved
            blocker.release.set()
            assert running.wait(5.0)
            time.sleep(0.02)
            assert queued.state == CANCELLED
            assert queued.result is None

    def test_cancel_mid_plan_interrupts_at_checkpoint(self):
        blocker = Blocker()
        with JobQueue(workers=1) as queue:
            job = queue.submit(blocker)
            assert blocker.entered.wait(5.0)
            assert job.state == RUNNING
            assert queue.cancel(job.id) is True
            # the blocker polls ctx.check(), which now raises JobCancelled
            assert job.wait(5.0)
            assert job.state == CANCELLED
            assert isinstance(job.error, JobCancelled)
            names = [e["name"] for e in job.events_since()]
            assert "job.cancel_requested" in names
            assert names[-1] == "job.cancelled"

    def test_cancel_finished_job_is_refused(self):
        with JobQueue(workers=1) as queue:
            job = queue.submit(lambda ctx: "done")
            assert job.wait(5.0)
            assert queue.cancel(job.id) is False
            assert job.state == DONE
            assert job.result == "done"

    def test_shutdown_cancels_pending(self):
        blocker = Blocker()
        queue = JobQueue(workers=1)
        running = queue.submit(blocker)
        queued = queue.submit(lambda ctx: "never")
        assert blocker.entered.wait(5.0)
        # shut down while the first job still occupies the only worker:
        # the queued job must be cancelled without ever running
        queue.shutdown(wait=False)
        assert queued.state == CANCELLED
        blocker.release.set()
        assert running.wait(5.0)
        assert running.state == DONE
        queue.shutdown(wait=True)

    def test_submit_after_shutdown_rejected(self):
        queue = JobQueue(workers=1)
        queue.shutdown()
        with pytest.raises(QueueFull):
            queue.submit(lambda ctx: None)


class TestTimeout:
    def test_running_job_times_out_at_checkpoint(self):
        blocker = Blocker()
        with JobQueue(workers=1) as queue:
            job = queue.submit(blocker, timeout_seconds=0.05)
            assert blocker.entered.wait(5.0)
            # never released: the 50 ms deadline fires inside ctx.check()
            assert job.wait(5.0)
            assert job.state == TIMEOUT
            assert isinstance(job.error, JobTimeout)

    def test_pending_job_expires_without_running(self):
        blocker = Blocker()
        entered = threading.Event()

        def must_not_run(ctx):
            entered.set()

        with JobQueue(workers=1) as queue:
            running = queue.submit(blocker)
            queued = queue.submit(must_not_run, timeout_seconds=0.02)
            assert blocker.entered.wait(5.0)
            time.sleep(0.05)  # let the queued job's deadline lapse
            blocker.release.set()
            assert running.wait(5.0)
            assert queued.wait(5.0)
            assert queued.state == TIMEOUT
            assert not entered.is_set()

    def test_job_without_timeout_runs_long(self):
        blocker = Blocker()
        with JobQueue(workers=1) as queue:
            job = queue.submit(blocker)  # no deadline
            assert blocker.entered.wait(5.0)
            time.sleep(0.05)
            assert job.state == RUNNING
            blocker.release.set()
            assert job.wait(5.0)
            assert job.state == DONE


class TestCapacity:
    def test_queue_full_raises(self):
        blocker = Blocker()
        with JobQueue(workers=1, max_pending=2) as queue:
            queue.submit(blocker)
            assert blocker.entered.wait(5.0)
            queue.submit(lambda ctx: 1)
            queue.submit(lambda ctx: 2)
            with pytest.raises(QueueFull):
                queue.submit(lambda ctx: 3)
            blocker.release.set()

    def test_history_pruning_keeps_live_jobs(self):
        with JobQueue(workers=1, max_pending=64, max_history=5) as queue:
            jobs = [queue.submit(lambda ctx: None) for _ in range(12)]
            for job in jobs:
                assert job.wait(5.0)
            # pruning happens at submit time: one more submission sweeps
            # the (now all-terminal) backlog down to the history bound
            trigger = queue.submit(lambda ctx: None)
            assert trigger.wait(5.0)
            assert sum(queue.counts().values()) <= 6
            # the most recent jobs are still addressable
            assert queue.get(jobs[-1].id).state == DONE
            with pytest.raises(JobNotFound):
                queue.get(jobs[0].id)


class TestFinishedJobsReleaseTheirWork:
    """A terminal job in the history must not pin its request alive."""

    def test_done(self):
        with JobQueue(workers=1) as queue:
            job, ref = submit_capturing(queue, lambda ctx, c: "ok")
            assert job.wait(5.0) and job.state == DONE
            assert job.result == "ok"
            assert collected(ref)

    def test_failed(self):
        def boom(ctx, captured):
            raise ValueError("planned failure")

        with JobQueue(workers=1) as queue:
            job, ref = submit_capturing(queue, boom)
            assert job.wait(5.0) and job.state == FAILED
            assert isinstance(job.error, ValueError)
            assert collected(ref)

    def test_timed_out_while_running(self):
        def spin(ctx, captured):
            while True:
                ctx.check()
                time.sleep(0.005)

        with JobQueue(workers=1) as queue:
            job, ref = submit_capturing(queue, spin, timeout_seconds=0.05)
            assert job.wait(5.0) and job.state == TIMEOUT
            assert collected(ref)

    def test_cancelled_while_pending(self):
        blocker = Blocker()
        with JobQueue(workers=1) as queue:
            queue.submit(blocker)
            assert blocker.entered.wait(5.0)
            job, ref = submit_capturing(queue, lambda ctx, c: "never")
            assert queue.cancel(job.id) and job.state == CANCELLED
            assert collected(ref)
            blocker.release.set()

    def test_expired_while_pending(self):
        blocker = Blocker()
        with JobQueue(workers=1) as queue:
            running = queue.submit(blocker)
            assert blocker.entered.wait(5.0)
            job, ref = submit_capturing(
                queue, lambda ctx, c: "never", timeout_seconds=0.02
            )
            time.sleep(0.05)
            blocker.release.set()
            assert running.wait(5.0)
            assert job.wait(5.0) and job.state == TIMEOUT
            assert collected(ref)

    def test_shut_down_while_pending(self):
        blocker = Blocker()
        queue = JobQueue(workers=1)
        running = queue.submit(blocker)
        assert blocker.entered.wait(5.0)
        job, ref = submit_capturing(queue, lambda ctx, c: "never")
        queue.shutdown(wait=False)
        assert job.state == CANCELLED
        assert collected(ref)
        blocker.release.set()
        assert running.wait(5.0)
        queue.shutdown(wait=True)


class TestProgressEvents:
    def test_events_since_cursor(self):
        with JobQueue(workers=1) as queue:
            def fn(ctx):
                ctx.emit("step", n=1)
                ctx.emit("step", n=2)
                return "ok"

            job = queue.submit(fn)
            assert job.wait(5.0)
            everything = job.events_since(0)
            assert [e["name"] for e in everything] == [
                "job.submitted",
                "job.started",
                "step",
                "step",
                "job.done",
            ]
            cursor = everything[2]["seq"]
            tail = job.events_since(cursor)
            assert [e["name"] for e in tail] == ["step", "step", "job.done"]

    def test_snapshot_shape(self):
        from repro.serve.schemas import JOB_FORMAT, check_response_format

        with JobQueue(workers=1) as queue:
            job = queue.submit(lambda ctx: {"answer": 42})
            assert job.wait(5.0)
            snapshot = job.snapshot()
            check_response_format(snapshot, JOB_FORMAT)
            assert snapshot["result"] == {"answer": 42}
            assert snapshot["next_seq"] == snapshot["events"][-1]["seq"] + 1
