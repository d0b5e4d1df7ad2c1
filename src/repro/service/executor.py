"""Process-pool batch execution with per-item deadlines and retries.

CPython's GIL serializes CPU-bound work across threads, so an
in-process ``optimize_batch`` never uses more than one core for the
actual enumeration — the very hot path the paper is about.  This module
runs the exact enumerations of a batch in **worker processes** instead:
requests travel to workers as :mod:`repro.serialize` documents (plain
dicts), results travel back the same way, and the parent enforces a
wall-clock **deadline** per item.

Design notes:

* One duplex :func:`multiprocessing.Pipe` per worker, no shared queues.
  Killing a worker mid-task can only corrupt its own pipe (which is
  discarded with it), never a sibling's channel — the classic hazard of
  ``Process.terminate`` with a shared ``multiprocessing.Queue``.
* A worker that exceeds its deadline is **terminated and replaced**; the
  batch keeps draining on the remaining workers.  A worker that dies on
  its own (OOM kill, segfault) is detected via EOF and likewise
  replaced.  Either way the batch finishes; a single pathological query
  can no longer stall it.
* A job that carries its own cooperative ``deadline_seconds`` (see
  :mod:`repro.optimizer.budget`) is expected to stop **itself**: the
  worker's engine salvages a partial-memo plan at the deadline and
  reports it as an ordinary ``"ok"``.  :func:`cooperative_deadline`
  decides which deadline a job ships and how long the parent waits for
  it (:data:`COOPERATIVE_GRACE_SECONDS` on top of the budget); the
  parent escalates terminate → kill only when the worker misses that
  too — hard kills are the exception, not the enforcement mechanism.
* **Transient failures are retried**: with a :class:`~repro.service.resilience.RetryPolicy`
  installed, a crash, pipe EOF, or corrupted payload re-queues the item
  with exponential backoff + deterministic jitter, up to the policy's
  attempt cap and the batch-wide :class:`~repro.service.resilience.RetryBudget`.
  Deadline timeouts are *not* retried — the time budget is already
  spent; the service's degradation ladder owns that case.
* A **corrupted payload** — a message that is not the protocol's
  ``(index, ("ok"|"error", ...))`` shape, or that names the wrong job —
  is isolated to its item: the worker is recycled (its pipe can no
  longer be trusted) and the item resolves or retries on its own,
  leaving its batch siblings untouched.
* Deterministic **fault injection** for chaos tests: the parent resolves
  a :class:`~repro.service.faults.FaultInjector` directive per
  ``(tag, attempt)`` and ships it with the job message; the worker
  executes it (crash/hang/corrupt/slow) before touching the optimizer.
  With no injector configured the wire field is ``None`` and workers
  skip the machinery.
* Workers run :func:`repro.optimizer.api.optimize_request` directly —
  plan caching, admission, the degradation ladder and metrics stay in
  the parent (:mod:`repro.service.core`), which is what keeps results
  identical across the serial and process executors.
* :class:`ChildProcess` is the one spawn → stop primitive (private
  duplex pipe, sentinel → join → terminate → kill) shared by these
  batch workers and the front door's shard processes
  (:mod:`repro.service.sharding`).

Children start with ``fork`` where the platform has it (see
:func:`_mp_context`), so algorithms registered before the batch are
visible to workers.  Under ``spawn`` workers re-import :mod:`repro` and
only built-in registry names are available.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait as _connection_wait
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

from repro.errors import OptimizationError

__all__ = [
    "COOPERATIVE_GRACE_SECONDS",
    "ChildProcess",
    "EXECUTORS",
    "JobOutcome",
    "ProcessPoolExecutor",
    "cooperative_deadline",
]

#: Recognised ``executor=`` names for ``OptimizerService.optimize_batch``.
EXECUTORS = ("serial", "process")

#: How long (seconds) to wait for a child to exit after its shutdown
#: sentinel, and again after each terminate/kill escalation step.
_EXIT_GRACE = 2.0
_KILL_GRACE = 5.0

#: Extra wall-clock (seconds) a caller waits past a deadline it shipped
#: into the request: the engine stops itself at the deadline; the grace
#: only covers salvage and serialization before the caller assumes the
#: child is hung and kills it.
COOPERATIVE_GRACE_SECONDS = 1.0


def cooperative_deadline(
    budget: Optional[float], own: Optional[float], cooperative: bool = True
) -> Tuple[Optional[float], Optional[float]]:
    """Return ``(ship, wait)`` for a request its caller has ``budget`` for.

    ``ship`` is the ``deadline_seconds`` the request should carry to its
    engine and ``wait`` how long the caller waits for the answer before
    it gives up (and, across a process boundary, kills the child).  A
    ``cooperative`` engine gets the tighter of its own deadline and the
    budget, and is waited on for the budget plus
    :data:`COOPERATIVE_GRACE_SECONDS`; any other engine keeps its own
    deadline and is waited on for the budget alone.  ``budget=None``
    means the caller never gives up.
    """
    if budget is None:
        return own, None
    if not cooperative:
        return own, budget
    ship = budget if own is None else min(float(own), budget)
    return ship, budget + COOPERATIVE_GRACE_SECONDS


def _mp_context():
    """Prefer ``fork`` (keeps parent-registered plugins visible)."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


@dataclass
class JobOutcome:
    """What happened to one dispatched job.

    Exactly one of the states holds:

    * ``status == "ok"`` — ``document`` is the serialized
      :class:`~repro.optimizer.api.OptimizationResult` and ``spans``
      (when the job carried trace context) holds the worker's serialized
      trace spans (:func:`repro.service.tracing.span_to_dict` wire
      dicts) for the parent to graft into the request's trace;
    * ``status == "error"`` — the worker raised; ``error`` is
      ``"ExcType: message"`` (``spans`` as for ``"ok"``);
    * ``status == "timeout"`` — the deadline expired and the worker was
      recycled;
    * ``status == "crashed"`` — the worker process died without
      reporting (killed, segfault) or returned a corrupted payload, and
      every allowed retry did the same; treated like an error by the
      caller.

    ``elapsed_seconds`` is wall-clock for the **final attempt** as seen
    by the parent; ``retries`` is how many extra attempts the job
    consumed before resolving (0 = first try).
    """

    status: str
    elapsed_seconds: float
    document: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    retries: int = 0
    spans: Optional[List[Dict[str, Any]]] = None


def _process_worker_main(connection) -> None:
    """Worker loop: recv (index, request document, fault), send (index, payload).

    Runs in the child process.  ``None`` is the shutdown sentinel.  All
    failures — including deserialization errors — are reported back as
    ``("error", type_name, message)`` payloads so the parent can isolate
    them per item.  ``fault`` is an injected chaos directive (or
    ``None``): executed *before* the optimizer so it models an
    infrastructure fault, not an algorithm bug.
    """
    # Imported here so the module import itself stays cheap in the
    # parent and works under the ``spawn`` start method.
    from repro.optimizer.api import optimize_request
    from repro.serialize import request_from_dict, result_to_dict
    from repro.service.faults import apply_fault
    from repro.service.tracing import Span, span_to_dict

    while True:
        try:
            item = connection.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            return
        if item is None:
            return
        index, document, fault = item
        # Trace context rides inside the job document (so the wire
        # protocol shape is unchanged); strip it before deserializing.
        trace_context = (
            document.pop("trace", None) if isinstance(document, dict) else None
        )
        if fault is not None:
            try:
                poison = apply_fault(fault)
            except KeyboardInterrupt:
                return
            if poison is not None:
                try:
                    connection.send((index, poison))
                except (BrokenPipeError, OSError):
                    return
                continue
        started = time.perf_counter()
        result = None
        try:
            result = optimize_request(request_from_dict(document))
            payload: Tuple = ("ok", result_to_dict(result))
        except KeyboardInterrupt:
            return
        except BaseException as exc:
            payload = ("error", type(exc).__name__, str(exc))
        if trace_context is not None:
            # One ``enumerate`` span per job, failed or not, so the
            # parent's trace has the same shape as an in-process run.
            span = Span("enumerate", start_s=started)
            span.finish()
            span.set("worker_pid", os.getpid())
            if result is not None:
                span.annotate(
                    algorithm=result.algorithm,
                    memo_entries=result.memo_entries,
                    cost_evaluations=result.cost_evaluations,
                    cardinality_estimations=result.cardinality_estimations,
                    **result.details,
                )
            payload += ([span_to_dict(span, origin_s=started)],)
        try:
            connection.send((index, payload))
        except (BrokenPipeError, OSError):
            return


def _child_main(target, connection, *args) -> None:
    """Run ``target`` in a child that a SIGTERM always ends.

    A forked child inherits the parent's signal handlers.  In a parent
    that handles SIGTERM itself (the front door drains on it), the
    terminate step of :meth:`ChildProcess.stop` would otherwise be
    swallowed by the child — or, through the inherited signal wakeup
    fd, delivered to the parent's event loop.  The parent blocks SIGTERM
    across the fork, so one sent before the reset waits, pending, until
    the unblock below delivers it under the default action.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, (signal.SIGTERM,))
    target(connection, *args)


class ChildProcess:
    """A daemon child process plus the parent's end of its private pipe.

    ``target(connection, *args)`` runs in the child.  :meth:`stop` is the
    one shutdown path: send ``sentinel`` and wait for a polite exit, then
    escalate terminate → kill.  Callers respawn by stopping a child and
    constructing a fresh one.
    """

    __slots__ = ("connection", "process")

    def __init__(self, target, args: Tuple = (), name: Optional[str] = None):
        context = _mp_context()
        self.connection, child_connection = context.Pipe(duplex=True)
        self.process = context.Process(
            target=_child_main,
            args=(target, child_connection) + tuple(args),
            daemon=True,
            name=name,
        )
        previous = signal.pthread_sigmask(signal.SIG_BLOCK, (signal.SIGTERM,))
        try:
            self.process.start()
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, previous)
        child_connection.close()

    def stop(self, sentinel: Any = None, graceful: bool = True) -> None:
        """Shut the child down; escalate if it will not die."""
        try:
            if graceful and self.process.is_alive():
                try:
                    self.connection.send(sentinel)
                except (BrokenPipeError, OSError):
                    pass
                self.process.join(timeout=_EXIT_GRACE)
            if self.process.is_alive():
                self.process.terminate()
                self.process.join(timeout=_KILL_GRACE)
            if self.process.is_alive():
                self.process.kill()
                self.process.join(timeout=_KILL_GRACE)
        finally:
            try:
                self.connection.close()
            except OSError:
                pass


class _Worker(ChildProcess):
    """One recyclable batch worker and the job it is running."""

    __slots__ = ("busy_index", "busy_document", "busy_attempt", "started_at")

    def __init__(self):
        super().__init__(_process_worker_main, name="repro-optimizer-worker")
        self.release()

    def assign(
        self,
        index: int,
        document: Dict[str, Any],
        attempt: int,
        fault: Optional[Dict[str, Any]],
    ) -> None:
        self.busy_index = index
        self.busy_document = document
        self.busy_attempt = attempt
        self.started_at = time.monotonic()
        self.connection.send((index, document, fault))

    def release(self) -> None:
        self.busy_index = None
        self.busy_document = None
        self.busy_attempt = 0
        self.started_at = None

    def elapsed(self) -> float:
        return 0.0 if self.started_at is None else time.monotonic() - self.started_at


class ProcessPoolExecutor:
    """Run serialized optimization jobs on worker processes.

    Parameters
    ----------
    workers:
        Number of worker processes (capped by the job count at run time).
    deadline_seconds:
        Per-item wall-clock budget measured from dispatch.  ``None``
        disables enforcement.  An expired item's worker is terminated and
        replaced; the item resolves to a ``"timeout"`` outcome.  A job
        whose request document carries its own ``deadline_seconds`` stops
        itself, so it is waited on for the grace of
        :func:`cooperative_deadline` on top.
    retry_policy:
        :class:`~repro.service.resilience.RetryPolicy` governing retries
        of transient worker failures (crash, EOF, corrupted payload).
        ``None`` disables retry (legacy behaviour).
    retry_budget:
        Optional :class:`~repro.service.resilience.RetryBudget` shared
        across the batch; once exhausted, further failures resolve
        immediately.
    fault_injector:
        Optional :class:`~repro.service.faults.FaultInjector` whose
        directives are shipped to workers per ``(tag, attempt)`` — chaos
        testing only.

    Each :meth:`run` call creates its workers and tears them down
    afterwards, so no state leaks between batches.
    """

    def __init__(
        self,
        workers: int,
        deadline_seconds: Optional[float] = None,
        retry_policy=None,
        retry_budget=None,
        fault_injector=None,
    ):
        if workers < 1:
            raise OptimizationError(
                f"process executor needs >= 1 worker, got {workers}"
            )
        if deadline_seconds is not None and deadline_seconds <= 0:
            raise OptimizationError(
                f"deadline_seconds must be positive, got {deadline_seconds}"
            )
        self.workers = workers
        self.deadline_seconds = deadline_seconds
        self.retry_policy = retry_policy
        self.retry_budget = retry_budget
        self.fault_injector = fault_injector

    # ------------------------------------------------------------------

    def run(
        self, jobs: Sequence[Tuple[int, Dict[str, Any]]]
    ) -> Dict[int, JobOutcome]:
        """Execute ``(index, request_document)`` jobs; return outcomes by index.

        Dispatch order follows the given sequence; resolution order is
        whatever the workers produce.  The call returns only when every
        job has an outcome — a hung worker is reaped at its deadline, so
        with a deadline set the batch provably terminates (retried items
        restart their deadline clock per attempt).
        """
        if not jobs:
            return {}
        outcomes: Dict[int, JobOutcome] = {}
        # Each pending entry is (index, document, attempt, ready_at):
        # fresh jobs are ready immediately, retries carry a backoff
        # timestamp and wait in the queue until it passes.
        pending: Deque[Tuple[int, Dict[str, Any], int, float]] = deque(
            (index, document, 0, 0.0) for index, document in jobs
        )
        pool: List[_Worker] = [
            _Worker() for _ in range(min(self.workers, len(jobs)))
        ]
        idle: List[_Worker] = list(pool)
        busy: List[_Worker] = []
        try:
            while pending or busy:
                now = time.monotonic()
                while idle and pending:
                    slot = next(
                        (
                            position
                            for position, entry in enumerate(pending)
                            if entry[3] <= now
                        ),
                        None,
                    )
                    if slot is None:
                        break  # every queued job is still backing off
                    index, document, attempt, _ = pending[slot]
                    del pending[slot]
                    worker = idle.pop()
                    busy.append(worker)
                    fault = self._fault_for(document, attempt)
                    try:
                        worker.assign(index, document, attempt, fault)
                    except (BrokenPipeError, OSError):
                        # Worker died before it could accept work; this
                        # is the pool's fault, not the job's — requeue
                        # at the same attempt and replace the worker.
                        pending.appendleft((index, document, attempt, 0.0))
                        self._recycle(worker, pool, busy, idle, True)
                ready = _connection_wait(
                    [worker.connection for worker in busy],
                    timeout=self._poll_timeout(busy, pending),
                )
                for connection in ready:
                    worker = next(
                        w for w in busy if w.connection is connection
                    )
                    try:
                        message = worker.connection.recv()
                    except (EOFError, OSError):
                        self._resolve_failure(
                            worker,
                            "crashed",
                            "worker process died unexpectedly "
                            f"(exit code {worker.process.exitcode})",
                            outcomes,
                            pending,
                        )
                        self._recycle(worker, pool, busy, idle, bool(pending))
                        continue
                    payload = self._validate_message(worker, message)
                    if payload is None:
                        # Corrupted payload: the pipe framing survived
                        # but the content is garbage — the worker can no
                        # longer be trusted, so recycle it; the *item*
                        # retries or fails alone, siblings are unharmed.
                        self._resolve_failure(
                            worker,
                            "crashed",
                            "worker returned a corrupted payload",
                            outcomes,
                            pending,
                        )
                        self._recycle(worker, pool, busy, idle, bool(pending))
                        continue
                    ok = payload[0] == "ok"
                    outcomes[worker.busy_index] = JobOutcome(
                        status=payload[0],
                        elapsed_seconds=worker.elapsed(),
                        document=payload[1] if ok else None,
                        error=None if ok else f"{payload[1]}: {payload[2]}",
                        retries=worker.busy_attempt,
                        spans=(
                            payload[-1] if isinstance(payload[-1], list) else None
                        ),
                    )
                    worker.release()
                    busy.remove(worker)
                    idle.append(worker)
                if self.deadline_seconds is not None:
                    for worker in list(busy):
                        if worker.elapsed() >= self._hard_deadline(worker):
                            outcomes[worker.busy_index] = JobOutcome(
                                status="timeout",
                                elapsed_seconds=worker.elapsed(),
                                retries=worker.busy_attempt,
                            )
                            self._recycle(
                                worker, pool, busy, idle, bool(pending)
                            )
        finally:
            for worker in pool:
                worker.stop(graceful=worker.busy_index is None)
        return outcomes

    # ------------------------------------------------------------------

    def _hard_deadline(self, worker: _Worker) -> float:
        """Wall-clock bound after which this worker's job is forcibly reaped."""
        own = worker.busy_document.get("deadline_seconds")
        return cooperative_deadline(
            self.deadline_seconds, own, cooperative=own is not None
        )[1]

    def _fault_for(
        self, document: Dict[str, Any], attempt: int
    ) -> Optional[Dict[str, Any]]:
        """Resolve the chaos directive shipped with this dispatch."""
        if not self.fault_injector:
            return None
        spec = self.fault_injector.fault_for(document.get("tag"), attempt)
        return spec.to_dict() if spec is not None else None

    def _validate_message(self, worker: _Worker, message) -> Optional[Tuple]:
        """Return the payload of a protocol-conforming message, else None.

        The index inside the message must name the job this worker was
        actually assigned — a corrupted worker must not be able to
        overwrite a sibling item's outcome.
        """
        if not isinstance(message, tuple) or len(message) != 2:
            return None
        index, payload = message
        if index != worker.busy_index:
            return None
        if not isinstance(payload, tuple) or not payload:
            return None
        # ("ok", result_doc) / ("error", type_name, message), plus a
        # trailing list of span dicts when the job carried trace context.
        body = 2 if payload[0] == "ok" else 3 if payload[0] == "error" else None
        if body is None or len(payload) not in (body, body + 1):
            return None
        if payload[0] == "ok" and not isinstance(payload[1], dict):
            return None
        if len(payload) > body and not isinstance(payload[-1], list):
            return None
        return payload

    def _resolve_failure(
        self,
        worker: _Worker,
        status: str,
        error: str,
        outcomes: Dict[int, JobOutcome],
        pending: Deque[Tuple[int, Dict[str, Any], int, float]],
    ) -> None:
        """Retry a transient worker failure, or record its final outcome."""
        index = worker.busy_index
        document = worker.busy_document
        attempt = worker.busy_attempt
        if self.retry_policy is not None and attempt < self.retry_policy.max_retries:
            if self.retry_budget is None or self.retry_budget.try_acquire():
                token = document.get("tag") or f"#{index}"
                delay = self.retry_policy.delay(attempt, token)
                pending.append(
                    (index, document, attempt + 1, time.monotonic() + delay)
                )
                return
            error = f"{error} [RetryExhaustedError: batch retry budget spent]"
        elif self.retry_policy is not None and attempt > 0:
            error = (
                f"{error} [RetryExhaustedError: failed on all "
                f"{attempt + 1} attempts]"
            )
        outcomes[index] = JobOutcome(
            status=status,
            elapsed_seconds=worker.elapsed(),
            error=error,
            retries=attempt,
        )

    def _poll_timeout(
        self,
        busy: Sequence[_Worker],
        pending: Sequence[Tuple[int, Dict[str, Any], int, float]],
    ) -> Optional[float]:
        """Sleep until the next result, deadline expiry, or retry ready-time."""
        candidates: List[float] = []
        if self.deadline_seconds is not None and busy:
            candidates.append(
                min(
                    self._hard_deadline(worker) - worker.elapsed()
                    for worker in busy
                )
            )
        if pending and not any(entry[3] == 0.0 for entry in pending):
            now = time.monotonic()
            candidates.append(min(entry[3] for entry in pending) - now)
        if not candidates:
            # No deadline and no backoff to wake for: block until a
            # worker reports (there is always at least one busy worker
            # here, otherwise pending would have been dispatchable).
            return None if busy else 0.01
        # A small floor keeps the loop from busy-spinning when a
        # deadline is imminent; expiry is re-checked right after.
        return max(0.01, min(candidates))

    def _recycle(
        self,
        worker: _Worker,
        pool: List[_Worker],
        busy: List[_Worker],
        idle: List[_Worker],
        need_replacement: bool,
    ) -> None:
        """Kill a worker and, if jobs are still queued, replace it."""
        busy.remove(worker)
        pool.remove(worker)
        worker.stop(graceful=False)
        if need_replacement:
            replacement = _Worker()
            pool.append(replacement)
            idle.append(replacement)
