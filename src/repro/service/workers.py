"""Worker pool: crash-isolated, timeout-bounded job execution.

Each pool slot is a dispatcher thread owning one *persistent, prewarmed*
worker process (the idiom of
:class:`repro.engine.evaluator.ProcessPoolEvaluator`: pay the interpreter
start-up and import cost once per worker, not once per job).  Job specs
travel to the worker as JSON dicts, canonical result payloads travel back —
nothing else crosses the process boundary, so a worker can die without
corrupting service state:

* **Crash isolation** — a worker that exits mid-job (segfault, ``os._exit``,
  OOM kill) fails *only its job*; the dispatcher respawns a fresh worker for
  the next one.
* **Per-job timeout** — ``JobSpec.timeout_seconds`` (or the pool default)
  bounds one execution; on expiry the worker is terminated and the job fails
  with a timeout error.
* **Cancellation** — a running job whose ``cancel_requested`` flag is set is
  terminated at the next poll tick.

``mode="inline"`` executes jobs directly on the dispatcher thread instead —
no isolation, timeouts and mid-run cancellation are best-effort ignored, but
it works in environments without process semaphores and is deterministic for
tests.  ``mode="auto"`` (the default) tries processes and falls back to
inline on spawn failure, mirroring ``ProcessPoolEvaluator``'s
``fallback_to_serial``.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_module
import threading
import time
import traceback
from typing import Dict, List, Optional, Tuple

from repro.backend import (
    get_backend,
    prewarm_default_backend,
    set_default_backend,
    use_backend,
)
from repro.obs.metrics import REGISTRY
from repro.obs.trace import TRACER, parse_traceparent
from repro.service import jobs as jobs_module
from repro.service.jobs import Job, JobSpec, execute_spec
from repro.service.scheduler import Scheduler

#: Exceptions that indicate "cannot spawn processes here" — the same set the
#: engine evaluator treats as grounds for serial fallback.
_SPAWN_ERRORS = (OSError, PermissionError, RuntimeError)

#: How often a dispatcher re-checks liveness / timeout / cancellation while
#: waiting for a worker's result.
_POLL_SECONDS = 0.05


def _worker_main(task_queue, result_queue, backend_name=None) -> None:
    """Entry point of a persistent worker process.

    Prewarms the heavyweight imports once, then serves ``(job_id, spec,
    traceparent)`` tasks until it receives ``None``.  Every outcome — success
    or exception — is reported through the result queue as ``(job_id, status,
    detail, extras)``; ``extras`` carries the worker's pid, its cumulative
    metrics-registry snapshot and (for traced jobs) the spans it recorded, so
    observability crosses the process boundary with the result.  Anything
    that escapes this loop is a *crash* and is detected by the dispatcher via
    process death.
    """
    jobs_module._IN_WORKER_PROCESS = True
    if backend_name is not None:
        # Process-local backend selections don't survive the process
        # boundary, so the pool ships the effective name explicitly.
        set_default_backend(backend_name)
    # Build/load the backend's cc kernel library now so the first *job*
    # never pays the build latency.
    prewarm_default_backend()
    from repro.engine.engine import Engine  # noqa: F401  (prewarm imports)

    while True:
        task = task_queue.get()
        if task is None:
            return
        job_id, spec_payload, traceparent = task
        parsed = parse_traceparent(traceparent)
        status = "ok"
        try:
            with TRACER.activate(traceparent) as remote:
                if remote is not None:
                    with TRACER.span("worker.execute", attrs={"job_id": job_id}):
                        detail = execute_spec(JobSpec.from_dict(spec_payload))
                else:
                    detail = execute_spec(JobSpec.from_dict(spec_payload))
        except Exception:
            status, detail = "error", traceback.format_exc(limit=8)
        extras = {"pid": os.getpid(), "metrics": REGISTRY.snapshot()}
        if parsed is not None:
            extras["spans"] = TRACER.drain(parsed[0])
        result_queue.put((job_id, status, detail, extras))


class _WorkerProcess:
    """One persistent worker process plus its task/result queues."""

    def __init__(self, context, backend_name: Optional[str] = None) -> None:
        self._context = context
        self._backend_name = backend_name
        self._process = None
        self._tasks = None
        self._results = None

    def _ensure(self) -> None:
        if self._process is not None and self._process.is_alive():
            return
        self._tasks = self._context.Queue()
        self._results = self._context.Queue()
        self._process = self._context.Process(
            target=_worker_main,
            args=(self._tasks, self._results, self._backend_name),
            daemon=True,
        )
        self._process.start()

    def run(
        self, job: Job, timeout: Optional[float]
    ) -> Tuple[str, Optional[object], Optional[dict]]:
        """Execute ``job`` in the worker; return ``(status, detail, extras)``.

        ``status`` is ``"ok"`` (detail: payload), ``"error"`` (detail:
        traceback text), ``"timeout"``, ``"crash"`` (detail: exit code) or
        ``"cancelled"``.  ``extras`` is the worker's observability dump (pid,
        metrics snapshot, traced spans) when a result came back, else ``None``.
        """
        self._ensure()
        self._tasks.put((job.job_id, job.spec.to_dict(), job.traceparent))
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            try:
                job_id, status, detail, extras = self._results.get(timeout=_POLL_SECONDS)
            except queue_module.Empty:
                if job.cancel_requested:
                    self.terminate()
                    return "cancelled", None, None
                if not self._process.is_alive():
                    # Drain a result that raced with process death.
                    try:
                        job_id, status, detail, extras = self._results.get_nowait()
                    except queue_module.Empty:
                        exitcode = self._process.exitcode
                        self.terminate()
                        return "crash", exitcode, None
                else:
                    if deadline is not None and time.monotonic() > deadline:
                        self.terminate()
                        return "timeout", None, None
                    continue
            if job_id != job.job_id:
                continue  # stale result from an earlier abandoned execution
            return status, detail, extras

    def terminate(self) -> None:
        """Kill the worker (a fresh one is spawned for the next job)."""
        if self._process is not None and self._process.is_alive():
            self._process.terminate()
            self._process.join(timeout=5.0)
        self._process = None
        self._tasks = None
        self._results = None

    def close(self) -> None:
        if self._process is not None and self._process.is_alive():
            try:
                self._tasks.put(None)
                self._process.join(timeout=1.0)
            except (OSError, ValueError):  # pragma: no cover - shutdown race
                pass
        self.terminate()


class WorkerPool:
    """N dispatcher threads draining a :class:`Scheduler`.

    Parameters
    ----------
    scheduler:
        The queue to drain; jobs are completed/failed back through it.
    num_workers:
        Pool width — concurrent executions (and, in process mode, resident
        worker processes).
    mode:
        ``"process"`` (isolated workers), ``"inline"`` (execute on the
        dispatcher thread), or ``"auto"`` (process with inline fallback).
    default_timeout:
        Per-job execution bound applied when the spec carries none.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        num_workers: int = 2,
        mode: str = "auto",
        default_timeout: Optional[float] = None,
        backend: Optional[str] = None,
    ) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if mode not in ("process", "inline", "auto"):
            raise ValueError(f"unknown worker mode {mode!r}")
        self.scheduler = scheduler
        self.num_workers = num_workers
        self.mode = mode
        self.default_timeout = default_timeout
        self.backend = backend
        self._threads: List[threading.Thread] = []
        self._stop = threading.Event()
        self._context = multiprocessing.get_context()
        #: Latest metrics-registry dump per worker pid.  Dumps are cumulative
        #: within one worker's lifetime, so keeping the latest per pid (and
        #: summing across pids at read time) stays correct across respawns.
        self._worker_dumps: Dict[int, dict] = {}
        self._dumps_lock = threading.Lock()

    def backend_name(self) -> str:
        """The compute backend jobs execute under (reported in ``/metrics``)."""
        return self.backend or get_backend().name

    # ------------------------------------------------------------------ #
    def start(self) -> "WorkerPool":
        """Spawn the dispatcher threads (idempotent; restarts after stop)."""
        if self._threads:
            return self
        self._stop.clear()
        self.scheduler.reopen()
        for index in range(self.num_workers):
            thread = threading.Thread(
                target=self._serve, name=f"boolgebra-worker-{index}", daemon=True
            )
            thread.start()
            self._threads.append(thread)
        return self

    def stop(self, join: bool = True) -> None:
        """Stop accepting work and (optionally) join the dispatchers."""
        self._stop.set()
        self.scheduler.close()
        if join:
            for thread in self._threads:
                thread.join(timeout=10.0)
        self._threads = []

    def gauges(self) -> dict:
        return {"workers": self.num_workers}

    def worker_series(self) -> List[dict]:
        """Latest metrics-registry snapshot of every worker process seen."""
        with self._dumps_lock:
            return list(self._worker_dumps.values())

    def _absorb_extras(self, extras: Optional[dict]) -> None:
        """Fold one worker result's observability dump into pool state."""
        if not isinstance(extras, dict):
            return
        pid = extras.get("pid")
        metrics = extras.get("metrics")
        if isinstance(pid, int) and isinstance(metrics, dict):
            with self._dumps_lock:
                self._worker_dumps[pid] = metrics
        spans = extras.get("spans")
        if spans:
            TRACER.ingest(spans)

    # ------------------------------------------------------------------ #
    def _serve(self) -> None:
        worker: Optional[_WorkerProcess] = None
        mode = self.mode
        try:
            while not self._stop.is_set():
                job = self.scheduler.next_job(timeout=0.1)
                if job is None:
                    if self._stop.is_set() or self.scheduler.closed:
                        return
                    continue
                if job.cancel_requested:
                    self.scheduler.release_cancelled(job)
                    continue
                timeout = job.spec.timeout_seconds
                if timeout is None:
                    timeout = self.default_timeout
                if mode in ("process", "auto") and worker is None:
                    try:
                        worker = _WorkerProcess(self._context, self.backend_name())
                        worker._ensure()
                    except _SPAWN_ERRORS:
                        worker = None
                        if mode == "process":
                            self.scheduler.fail(job, "cannot spawn worker process")
                            continue
                        mode = "inline"
                if mode == "inline" or worker is None:
                    self._run_inline(job)
                else:
                    self._run_in_process(worker, job, timeout)
        finally:
            if worker is not None:
                worker.close()

    def _run_inline(self, job: Job) -> None:
        try:
            with use_backend(self.backend):
                # Inline workers share the process-global tracer, so spans
                # land in the service's buffer directly — no shipping needed.
                with TRACER.activate(job.traceparent) as remote:
                    if remote is not None:
                        with TRACER.span(
                            "worker.execute",
                            attrs={"job_id": job.job_id, "mode": "inline"},
                        ):
                            payload = execute_spec(job.spec)
                    else:
                        payload = execute_spec(job.spec)
        except Exception as error:
            self.scheduler.fail(job, f"{type(error).__name__}: {error}")
            return
        self.scheduler.complete(job, payload)

    def _run_in_process(
        self, worker: _WorkerProcess, job: Job, timeout: Optional[float]
    ) -> None:
        try:
            status, detail, extras = worker.run(job, timeout)
        except _SPAWN_ERRORS as error:  # pragma: no cover - spawn race
            self.scheduler.fail(job, f"worker unavailable: {error}")
            return
        self._absorb_extras(extras)
        if status == "ok":
            self.scheduler.complete(job, detail)
        elif status == "error":
            self.scheduler.fail(job, str(detail))
        elif status == "timeout":
            self.scheduler.fail(
                job,
                f"job exceeded its {timeout:.1f}s timeout",
                timeout=True,
                timeout_limit=timeout,
            )
        elif status == "cancelled":
            self.scheduler.release_cancelled(job)
        else:  # crash
            exit_code = detail if isinstance(detail, int) else None
            self.scheduler.fail(
                job,
                f"worker process died (exit code {detail})",
                crash=True,
                exit_code=exit_code,
            )
