"""Job store: lifecycle, execution, and graceful shutdown.

One :class:`Job` wraps one unit of work — an explicit point-set, a
figure, or a validate run — and moves through a small state machine::

    queued ──> running ──> completed
       │          ├──────> failed
       └──────────┴──────> cancelled

Execution rides the sweep engine's :class:`~repro.experiments.sweep.SweepJob`
handle, so everything the CLI path guarantees holds over HTTP too: misses
go through the sweep engine and the lockfile + atomic-rename cache
discipline, progress is the same ``_Progress`` snapshot stream the
terminal line draws, and cancellation lands on point boundaries with
every finished point already cache-published (which is what makes a
re-submitted job resume instead of restart).

The store itself is deliberately in-memory: durable state lives in the
result cache, which the service shares byte-for-byte with a concurrently
running CLI sweep.  Shutdown (``begin_shutdown`` + ``drain``) stops
admissions, then either lets in-flight jobs finish ("drain") or cancels
them at the next point boundary ("cancel") — both deterministic, neither
able to tear a cache file.
"""

from __future__ import annotations

import threading
import time
import traceback as traceback_module
from concurrent.futures import ThreadPoolExecutor

from repro.common import metrics
from repro.service.schemas import JobSpec

#: Longest traceback a failed job's payload carries (tail-truncated —
#: the raising frame is at the bottom, so the tail is the useful part).
MAX_TRACEBACK_CHARS = 2000

#: Lifecycle states (see the module docstring for the transitions).
JOB_STATES = ("queued", "running", "completed", "failed", "cancelled")
TERMINAL_STATES = ("completed", "failed", "cancelled")


class StoreClosing(RuntimeError):
    """Submission rejected because the service is shutting down (503)."""


class Job:
    """One submitted job and everything a client can ask about it."""

    def __init__(self, job_id: str, spec: JobSpec, token: str,
                 points: list):
        self.id = job_id
        self.spec = spec
        self.token = token
        self.points = points            #: materialized SweepPoints ([] = n/a)
        self.state = "queued"
        self.error: str | None = None
        self.error_type: str | None = None
        self.traceback: str | None = None
        self.result: dict | None = None
        self.created = time.time()
        self.started: float | None = None
        self.finished: float | None = None
        self.cancel_event = threading.Event()
        self.sweep_job = None           #: SweepJob once running (points/figure)
        self.event_log = None           #: RunEventLog once running (sweeps)

    def progress(self) -> dict:
        if self.sweep_job is not None:
            return self.sweep_job.snapshot()["progress"]
        done = len(self.points) if self.state == "completed" else 0
        return {"total": len(self.points), "cached": 0, "done": done,
                "running": 0, "eta_seconds": None, "elapsed_seconds": 0.0}

    def to_dict(self, verbose: bool = True) -> dict:
        out = {
            "id": self.id,
            "kind": self.spec.kind,
            "label": self.spec.describe(),
            "state": self.state,
            "token": self.token,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "progress": self.progress(),
            "links": {"self": f"/jobs/{self.id}"},
        }
        if self.error is not None:
            out["error"] = self.error
        if self.error_type is not None:
            out["error_type"] = self.error_type
        if verbose and self.traceback is not None:
            out["traceback"] = self.traceback
        if self.event_log is not None and self.event_log.path is not None:
            out["event_log"] = str(self.event_log.path)
        if verbose and self.result is not None:
            out["result"] = self.result
        return out


class JobStore:
    """Thread-safe registry + executor for :class:`Job`\\ s.

    ``job_slots`` bounds how many jobs *run* simultaneously (each job may
    itself fan a sweep over worker processes); further admissions queue.
    ``sweep_jobs`` is the server-side default worker count a request may
    override within schema bounds.
    """

    def __init__(self, job_slots: int = 2, sweep_jobs: int | None = None):
        self.sweep_jobs = sweep_jobs
        self._jobs: dict[str, Job] = {}
        self._order: list[str] = []
        self._lock = threading.Lock()
        self._counter = 0
        self._closing = False
        self._executor = ThreadPoolExecutor(
            max_workers=max(1, job_slots), thread_name_prefix="repro-job")
        self.started_at = time.time()

    # -- submission ---------------------------------------------------------

    def _materialize_points(self, spec: JobSpec) -> list:
        """Resolve a spec to concrete SweepPoints (empty for validate)."""
        if spec.kind == "points":
            return [ps.to_sweep_point() for ps in spec.points]
        if spec.kind == "figure":
            from repro.experiments.registry import figure_points
            return list(figure_points(spec.figure, scale=spec.scale))
        return []

    def submit(self, spec: JobSpec, token: str) -> Job:
        """Admit, register, and enqueue a job.

        Raises :class:`StoreClosing` during shutdown, with nothing
        registered.
        """
        if self._closing:
            raise StoreClosing("service is shutting down; not accepting jobs")
        points = self._materialize_points(spec)
        with self._lock:
            self._counter += 1
            job_id = f"j{self._counter:06d}"
        job = Job(job_id, spec, token, points)
        with self._lock:
            if self._closing:
                raise StoreClosing(
                    "service is shutting down; not accepting jobs")
            self._jobs[job_id] = job
            self._order.append(job_id)
        metrics.METRICS.counter(
            "repro_jobs_submitted_total", "jobs admitted, by kind").inc(
            kind=spec.kind)
        self._executor.submit(self._run, job)
        return job

    # -- execution ----------------------------------------------------------

    def _finish(self, job: Job, state: str, error: str | None = None,
                error_type: str | None = None,
                trace: str | None = None) -> None:
        with self._lock:
            job.state = state
            job.error = error if error is not None else job.error
            job.error_type = error_type
            job.traceback = trace
            job.finished = time.time()
        if job.event_log is not None:
            job.event_log.close()
        metrics.METRICS.counter(
            "repro_jobs_finished_total",
            "jobs reaching a terminal state, by state").inc(state=state)
        if job.started is not None:
            metrics.METRICS.histogram(
                "repro_job_seconds",
                "wall time from job start to terminal state").observe(
                job.finished - job.started)

    def _run(self, job: Job) -> None:
        with self._lock:
            if job.state != "queued":     # cancelled while waiting for a slot
                return
            job.state = "running"
            job.started = time.time()
        try:
            if job.cancel_event.is_set():
                self._finish(job, "cancelled", "cancelled before start")
                return
            runner = {"points": self._run_points, "figure": self._run_figure,
                      "validate": self._run_validate}[job.spec.kind]
            result = runner(job)
            if result is None:            # cancelled on a point boundary
                self._finish(job, "cancelled",
                             job.sweep_job.error if job.sweep_job else
                             "cancelled")
            else:
                job.result = result
                self._finish(job, "completed")
        except Exception as exc:          # surfaced to the polling client
            trace = traceback_module.format_exc()
            if len(trace) > MAX_TRACEBACK_CHARS:
                trace = "... (truncated)\n" + trace[-MAX_TRACEBACK_CHARS:]
            self._finish(job, "failed", f"{type(exc).__name__}: {exc}",
                         error_type=type(exc).__name__, trace=trace)

    def _run_sweep(self, job: Job):
        """Drive a SweepJob for this job's points; None when cancelled."""
        from repro.experiments.sweep import SweepJob
        from repro.obs.eventlog import RunEventLog, event_log_path
        # One JSONL event log per job, next to the cache (meta/events/):
        # the run's full timeline — cache hits, steals, per-point seconds,
        # cancellation — reconstructible after the job is gone.
        if job.event_log is None:
            try:
                job.event_log = RunEventLog(event_log_path(job.id))
            except (ValueError, OSError):
                job.event_log = RunEventLog(None)
        # Sharing the job's cancel event means a DELETE that lands mid-run
        # stops the sweep directly, not just flags the job record.
        job.sweep_job = SweepJob(
            job.points,
            jobs=job.spec.sweep_jobs or self.sweep_jobs,
            cancel_event=job.cancel_event,
            events=job.event_log)
        return job.sweep_job.run()

    @staticmethod
    def _point_entries(job: Job, outcome) -> list[dict]:
        from repro.experiments import runner
        entries = []
        for point, result in zip(job.points, outcome.results):
            digest = runner.point_digest(point.key())
            entries.append({
                "app": point.abbr,
                "backend": point.config.backend.value,
                "tag": point.tag,
                "digest": digest,
                "simulated": point.key() in outcome.stats.point_seconds,
                "cycles": result.cycles,
                "result_url": f"/results/{digest}",
            })
        return entries

    def _run_points(self, job: Job) -> dict | None:
        outcome = self._run_sweep(job)
        if outcome is None:
            return None
        return {"points": self._point_entries(job, outcome),
                "stats": job.sweep_job.snapshot().get("stats", {})}

    def _run_figure(self, job: Job) -> dict | None:
        import json

        from repro.experiments.registry import FIGURES, _takes_scale
        outcome = self._run_sweep(job)
        if outcome is None:
            return None
        # The point-set is now warm, so the real evaluation is pure cache
        # hits — the same two-phase shape as registry.run_figure.
        fn = FIGURES[job.spec.figure]
        if job.spec.scale is not None and _takes_scale(fn):
            output = fn(scale=job.spec.scale)
        else:
            output = fn()
        return {"figure": job.spec.figure,
                "output": json.loads(json.dumps(output, default=str)),
                "points": self._point_entries(job, outcome),
                "stats": job.sweep_job.snapshot().get("stats", {})}

    def _run_validate(self, job: Job) -> dict:
        from repro.validation.differential import run_validation
        spec = job.spec
        seeds = list(range(spec.validate_seed_start,
                           spec.validate_seed_start + spec.validate_seeds))
        report = run_validation(list(spec.validate_schemes), seeds,
                                trace_scale=spec.scale or 1.0,
                                check_invariants=True)
        return {"ok": report.ok, "summary": report.describe()}

    # -- queries and control ------------------------------------------------

    def get(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def list(self) -> list[Job]:
        with self._lock:
            return [self._jobs[jid] for jid in self._order]

    def cancel(self, job_id: str) -> Job | None:
        """Request cancellation; returns the job, or None if unknown.

        A queued job flips to ``cancelled`` immediately; a running job
        keeps state ``running`` until the sweep observes the event at the
        next point boundary.  Terminal jobs are left untouched.
        """
        job = self.get(job_id)
        if job is None:
            return None
        with self._lock:
            if job.state == "queued":
                job.cancel_event.set()
                job.state = "cancelled"
                job.error = "cancelled while queued"
                job.finished = time.time()
                return job
        if job.state == "running":
            job.cancel_event.set()
            if job.sweep_job is not None:
                job.sweep_job.cancel()
        return job

    def counts(self) -> dict:
        with self._lock:
            jobs = list(self._jobs.values())
        return {state: sum(1 for j in jobs if j.state == state)
                for state in JOB_STATES}

    # -- shutdown -----------------------------------------------------------

    @property
    def closing(self) -> bool:
        return self._closing

    def begin_shutdown(self, mode: str = "drain") -> None:
        """Stop admissions; ``mode="cancel"`` also cancels non-terminal jobs."""
        if mode not in ("drain", "cancel"):
            raise ValueError(f"unknown shutdown mode {mode!r}")
        self._closing = True
        if mode == "cancel":
            for job in self.list():
                if job.state not in TERMINAL_STATES:
                    self.cancel(job.id)

    def drain(self) -> None:
        """Block until every admitted job reaches a terminal state."""
        self._closing = True
        self._executor.shutdown(wait=True)
