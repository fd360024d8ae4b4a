"""Async job queue with bounded workers, timeouts and cancellation.

The planning service runs every plan/repair on this queue: HTTP
handler threads only parse, submit and wait, so plan CPU usage is
bounded by the worker count no matter how many connections are open.

Jobs are cooperative. A running job periodically calls
:meth:`JobContext.check` (the service runs every job under its own
tracer, whose ``on_event`` hook calls it, so every builder heartbeat,
shard completion and repair round is a cancellation point); ``check`` raises
:class:`JobCancelled` / :class:`JobTimeout`, which the worker maps to
the terminal ``cancelled`` / ``timeout`` states. Jobs still pending
when their deadline passes, or cancelled before a worker picks them
up, never run at all.

Job ids are sequential (``job-000001``), not random: the queue is
in-process state, and deterministic ids keep the test suite and the
event streams reproducible.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Set

from repro.obs.trace import Tracer
from repro.util.errors import RtspError

__all__ = [
    "PENDING",
    "RUNNING",
    "DONE",
    "FAILED",
    "CANCELLED",
    "TIMEOUT",
    "TERMINAL_STATES",
    "JobError",
    "JobCancelled",
    "JobTimeout",
    "JobNotFound",
    "QueueFull",
    "Job",
    "JobContext",
    "JobQueue",
]

PENDING = "pending"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"
TIMEOUT = "timeout"

TERMINAL_STATES = frozenset({DONE, FAILED, CANCELLED, TIMEOUT})


class JobError(RtspError):
    """Base class for job-lifecycle errors."""


class JobCancelled(JobError):
    """The job was cancelled before it finished."""


class JobTimeout(JobError):
    """The job's deadline expired before it finished."""


class JobNotFound(RtspError):
    """No job with the requested id exists (transport: 404)."""


class QueueFull(RtspError):
    """The pending queue is at capacity (transport: 429)."""


class Job:
    """One unit of queued work and its observable lifecycle."""

    def __init__(
        self,
        job_id: str,
        kind: str,
        fn: Callable[["JobContext"], Any],
        timeout_seconds: Optional[float] = None,
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.id = job_id
        self.kind = kind
        #: The work; released (``None``) once the job is terminal.
        self.fn: Optional[Callable[["JobContext"], Any]] = fn
        self.timeout_seconds = timeout_seconds
        self.state = PENDING
        self.result: Any = None
        self.error: Optional[BaseException] = None
        #: Per-job progress events (``rtsp-trace/2`` event records). It
        #: holds no spans, so seqs run 0, 1, ... per job.
        self.stream = Tracer(meta={"job": job_id, "kind": kind, **(meta or {})})
        self.submitted_at = time.monotonic()
        self.deadline = (
            self.submitted_at + timeout_seconds
            if timeout_seconds is not None
            else None
        )
        self.cancel_event = threading.Event()
        self.done_event = threading.Event()
        self._lock = threading.Lock()

    # The queue transitions states under its own lock; these helpers are
    # for readers (HTTP handlers, tests).
    @property
    def finished(self) -> bool:
        return self.state in TERMINAL_STATES

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job reaches a terminal state."""
        return self.done_event.wait(timeout)

    def events_since(self, since: int = 0) -> List[Dict[str, Any]]:
        """Logical progress records with ``seq >= since`` (poll cursor)."""
        with self._lock:
            events = list(self.stream.events)
        return [e.logical_record() for e in events if e.seq >= since]

    def record(self, name: str, **attrs: Any) -> None:
        """Append one progress event (thread-safe wrapper)."""
        with self._lock:
            self.stream.event(name, **attrs)

    def snapshot(self, since: int = 0) -> Dict[str, Any]:
        """The ``rtsp-job/1`` view served by ``GET /v1/jobs/{id}``."""
        from repro.serve.schemas import JOB_FORMAT

        events = self.events_since(since)
        payload: Dict[str, Any] = {
            "format": JOB_FORMAT,
            "id": self.id,
            "kind": self.kind,
            "state": self.state,
            "events": events,
            "next_seq": (events[-1]["seq"] + 1) if events else since,
        }
        if self.state == DONE:
            payload["result"] = self.result
        elif self.state in (FAILED, CANCELLED, TIMEOUT) and self.error is not None:
            payload["error"] = {
                "type": type(self.error).__name__,
                "message": str(self.error),
            }
        return payload


class JobContext:
    """What a running job sees: progress emission and checkpoints."""

    def __init__(self, job: Job) -> None:
        self.job = job

    def check(self) -> None:
        """Raise if the job was cancelled or its deadline passed."""
        if self.job.cancel_event.is_set():
            raise JobCancelled(f"{self.job.id} cancelled")
        deadline = self.job.deadline
        if deadline is not None and time.monotonic() > deadline:
            raise JobTimeout(
                f"{self.job.id} exceeded its "
                f"{self.job.timeout_seconds:g}s timeout"
            )

    def emit(self, name: str, **attrs: Any) -> None:
        """Record progress, then checkpoint (every emit can cancel)."""
        self.job.record(name, **attrs)
        self.check()


class JobQueue:
    """FIFO queue drained by a fixed pool of daemon worker threads."""

    def __init__(
        self,
        workers: int = 2,
        max_pending: int = 64,
        max_history: int = 256,
        name: str = "serve",
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        self.workers = workers
        self.max_pending = max_pending
        self.max_history = max_history
        self._pending: Deque[Job] = deque()
        self._jobs: Dict[str, Job] = {}
        self._order: Deque[str] = deque()
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._next_id = 1
        self._closed = False
        self._threads = [
            threading.Thread(
                target=self._worker, name=f"{name}-worker-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------
    # submission / lookup
    # ------------------------------------------------------------------
    def submit(
        self,
        fn: Callable[[JobContext], Any],
        kind: str = "plan",
        timeout_seconds: Optional[float] = None,
        meta: Optional[Dict[str, Any]] = None,
    ) -> Job:
        """Enqueue ``fn``; raises :class:`QueueFull` at capacity."""
        with self._lock:
            if self._closed:
                raise QueueFull("queue is shut down")
            if len(self._pending) >= self.max_pending:
                raise QueueFull(
                    f"pending queue is full ({self.max_pending} jobs)"
                )
            job = Job(
                f"job-{self._next_id:06d}",
                kind,
                fn,
                timeout_seconds=timeout_seconds,
                meta=meta,
            )
            self._next_id += 1
            self._jobs[job.id] = job
            self._order.append(job.id)
            self._pending.append(job)
            self._prune_locked()
            self._wake.notify()
        job.record("job.submitted", kind=kind)
        return job

    def get(self, job_id: str) -> Job:
        """Look a job up by id; raises :class:`JobNotFound`."""
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise JobNotFound(f"unknown job id {job_id!r}")
        return job

    def cancel(self, job_id: str) -> bool:
        """Request cancellation; ``True`` if the job will not produce
        a result (it was pending, or the request was delivered to a
        running job), ``False`` if it had already finished."""
        job = self.get(job_id)
        with self._lock:
            if job.state in TERMINAL_STATES:
                return False
            job.cancel_event.set()
            if job.state == PENDING:
                self._finish_locked(
                    job, CANCELLED, error=JobCancelled(f"{job.id} cancelled")
                )
                return True
        job.record("job.cancel_requested")
        return True

    def counts(self) -> Dict[str, int]:
        """``state -> number of jobs`` over the retained history."""
        with self._lock:
            out: Dict[str, int] = {}
            for job in self._jobs.values():
                out[job.state] = out.get(job.state, 0) + 1
            return out

    def shutdown(self, wait: bool = True, timeout: float = 5.0) -> None:
        """Stop accepting work, cancel pending jobs, stop the workers."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            while self._pending:
                job = self._pending.popleft()
                if job.state == PENDING:
                    self._finish_locked(
                        job,
                        CANCELLED,
                        error=JobCancelled("queue shut down"),
                    )
            self._wake.notify_all()
        if wait:
            for thread in self._threads:
                thread.join(timeout=timeout)

    def __enter__(self) -> "JobQueue":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _prune_locked(self) -> None:
        """Drop the oldest *terminal* jobs beyond ``max_history``."""
        while len(self._order) > self.max_history:
            for index, job_id in enumerate(self._order):
                job = self._jobs[job_id]
                if job.state in TERMINAL_STATES:
                    del self._order[index]
                    del self._jobs[job_id]
                    break
            else:
                return  # everything retained is still live

    def _finish_locked(
        self, job: Job, state: str, error: Optional[BaseException] = None
    ) -> None:
        job.state = state
        job.error = error
        # The history keeps up to ``max_history`` terminal jobs for their
        # snapshots, which report an error by type and message only. Drop
        # what else would pin the request (instance and all): the closure
        # that captured it, and the tracebacks whose frames hold it.
        job.fn = None
        seen: Set[int] = set()
        while error is not None and id(error) not in seen:
            seen.add(id(error))
            error.__traceback__ = None
            error = error.__cause__ or error.__context__
        job.done_event.set()

    def _worker(self) -> None:
        while True:
            with self._lock:
                while not self._pending and not self._closed:
                    self._wake.wait()
                if self._closed and not self._pending:
                    return
                job = self._pending.popleft()
                if job.state != PENDING:
                    continue  # cancelled while queued
                if (
                    job.deadline is not None
                    and time.monotonic() > job.deadline
                ):
                    self._finish_locked(
                        job,
                        TIMEOUT,
                        error=JobTimeout(
                            f"{job.id} expired before a worker picked it up"
                        ),
                    )
                    continue
                job.state = RUNNING
            job.record("job.started")
            ctx = JobContext(job)
            # Only pending jobs reach here, and only terminal ones lose
            # their work. Called through the attribute, so this frame
            # never holds the closure.
            assert job.fn is not None
            try:
                result = job.fn(ctx)
                ctx.check()  # a cancel/timeout that landed at the finish line
            except JobCancelled as exc:
                job.record("job.cancelled")
                with self._lock:
                    self._finish_locked(job, CANCELLED, error=exc)
            except JobTimeout as exc:
                job.record("job.timeout")
                with self._lock:
                    self._finish_locked(job, TIMEOUT, error=exc)
            except BaseException as exc:  # noqa: BLE001 - worker must survive
                job.record(
                    "job.failed",
                    error=type(exc).__name__,
                    message=str(exc)[:500],
                )
                with self._lock:
                    self._finish_locked(job, FAILED, error=exc)
            else:
                job.record("job.done")
                with self._lock:
                    job.result = result
                    self._finish_locked(job, DONE)
