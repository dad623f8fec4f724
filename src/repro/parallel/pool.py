"""Crash-tolerant local process pool with ordered results and metrics.

:class:`WorkerPool` is the local transport of the shared dispatcher
(:mod:`repro.parallel.dispatch` documents ordered results, bounded
in-flight work, retries, deadlines, tracing and metrics). Each worker is
one :mod:`multiprocessing` process behind one pipe, with one slot:

* **crashes**: a dying worker fails only its own in-flight items, which
  are requeued; the pool publishes ``worker.crashed``, counts
  ``worker_crashes`` and starts a replacement (``worker_respawns``);
* **one item per worker**: a worker gets its next item when it finishes
  one, so no item waits behind a long one on a busy worker;
* **deadlines free the worker**: a worker still running an expired
  map's item is killed and replaced, so the next call is served at once;
* **fork hygiene**: workers reset the process-global ledger and tracer
  and ignore SIGINT; all recording happens in the parent.

Shard functions must be module-level (picklable).
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..errors import WorkerConfigError
from ..obs.events import WORKER_CRASHED
from .dispatch import Dispatcher, Endpoint, invoke, reset_process_globals

__all__ = ["WorkerPool", "resolve_workers"]

#: The platform's default start method (``fork`` on Linux).
_CTX = multiprocessing.get_context()
#: How long :meth:`WorkerPool.close` waits for busy workers before killing.
_CLOSE_GRACE_S = 1.0
_STOP = pickle.dumps(None)


def resolve_workers(workers: int) -> int:
    """Normalise a user-facing ``workers`` knob.

    ``0`` (and ``1``) mean serial; negative means "all available cores";
    anything else passes through. Callers use the result to decide whether
    to build a pool at all.

    When the knob is left at its default (``0``), a ``REPRO_WORKERS``
    environment variable overrides it, so ops can tune fan-out without
    touching specs or CLI flags. The override must be a positive
    integer; anything else raises
    :class:`~repro.errors.WorkerConfigError` — a silent fallback to
    serial would hide the typo. An explicit flag always beats the
    environment.
    """
    if workers == 0:
        env = os.environ.get("REPRO_WORKERS")
        if env is not None and env.strip():
            try:
                value = int(env)
            except ValueError:
                raise WorkerConfigError(
                    f"REPRO_WORKERS must be an integer, got {env!r}"
                ) from None
            if value <= 0:
                raise WorkerConfigError(
                    f"REPRO_WORKERS must be positive, got {value}"
                )
            return value
    if workers < 0:
        try:
            return len(os.sched_getaffinity(0))
        except AttributeError:  # pragma: no cover - non-Linux
            return multiprocessing.cpu_count()
    return workers


def _worker_main(conn: Any) -> None:
    """A worker process: serve dispatches from ``conn`` until told to stop.

    Workers ignore SIGINT: a terminal Ctrl-C reaches the whole foreground
    process group, but shutdown belongs to the parent.
    """
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    reset_process_globals()
    while True:
        try:
            message = pickle.loads(conn.recv_bytes())
        except EOFError:
            return
        if message is None:
            return
        task_id, fn, item, trace_ctx = message
        try:
            value, elapsed, trace = invoke(fn, item, trace_ctx)
            reply = pickle.dumps((task_id, True, value, elapsed, trace), -1)
        except BaseException as exc:  # noqa: BLE001 - shipped to the parent
            try:
                reply = pickle.dumps((task_id, False, exc, 0.0, None), -1)
            except Exception:  # noqa: BLE001 - unpicklable exception state
                error = RuntimeError(f"{type(exc).__name__}: {exc}")
                reply = pickle.dumps((task_id, False, error, 0.0, None), -1)
        conn.send_bytes(reply)


class _Worker(Endpoint):
    """One local worker process behind one pipe (internal)."""

    def __init__(self, process: Any, conn: Any) -> None:
        super().__init__(process.pid, pid=process.pid, slots=1)
        self.process = process
        self.conn = conn

    def write(self, data: bytes) -> None:
        self.conn.send_bytes(data)


class WorkerPool(Dispatcher):
    """A crash-tolerant, metrics-instrumented process pool.

    Parameters
    ----------
    workers:
        Number of worker processes (must be >= 1 — resolve serial
        fallback *before* constructing a pool, e.g. via
        :func:`resolve_workers` and :meth:`ShardPlan.plan`).
    max_retries:
        How many times one item may be requeued after a worker crash
        before :class:`~repro.errors.WorkerCrashError` is raised.
    metrics:
        Optional :class:`repro.service.metrics.MetricsRegistry`; receives
        ``worker_tasks`` / ``worker_crashes`` / ``worker_respawns``
        counters and ``worker_task_seconds`` latency observations.
    events:
        Optional :class:`repro.obs.events.EventBus`; receives
        ``worker.crashed`` events.
    """

    _noun = "worker"
    # A pipe round trip costs far less than an item, and an item queued
    # behind a running one could not move to a worker that frees sooner.
    _per_slot = 1

    def __init__(
        self,
        workers: int,
        *,
        max_retries: int = 2,
        metrics: Optional[Any] = None,
        events: Optional[Any] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"WorkerPool needs >= 1 worker, got {workers}")
        super().__init__(max_retries=max_retries, metrics=metrics, events=events)
        self.workers = workers
        self._n_started = 0

    def _get_executor(self) -> None:
        """Start worker processes until :attr:`workers` are alive.

        Runs on the first map, and again before the next dispatch once a
        crash or an expired deadline retired a worker; a replacement
        counts in :attr:`n_respawns`.
        """
        with self._cond:
            if self._closed:
                raise RuntimeError("WorkerPool is closed")
            missing = self.workers - len(self._live())
        started = []
        for _ in range(missing):
            conn, child_conn = _CTX.Pipe()
            process = _CTX.Process(
                target=_worker_main, args=(child_conn,),
                name="repro-worker", daemon=True,
            )
            process.start()
            child_conn.close()
            started.append(_Worker(process, conn))
        for worker in started:
            if self._n_started >= self.workers:
                self.n_respawns += 1
                if self._metrics is not None:
                    self._metrics.incr("worker_respawns")
            self._n_started += 1
            self._add_endpoint(worker, self._read_loop)

    def _read_loop(self, worker: _Worker) -> None:
        while True:
            # EOF, a broken pipe or an unreadable reply: the worker is gone.
            try:
                reply = pickle.loads(worker.conn.recv_bytes())
            except Exception:  # noqa: BLE001
                break
            self._complete(worker, *reply)
        self._remove_endpoint(worker, "worker exited")
        worker.process.kill()

    # ------------------------------------------------------------------
    # dispatcher hooks

    def _encode(self, task_id: int, fn: Callable[[Any], Any], item: Any,
                trace_ctx: Optional[Dict[str, Any]]) -> bytes:
        return pickle.dumps((task_id, fn, item, trace_ctx), -1)

    def _ensure_endpoints(self) -> None:
        if len(self._live()) < self.workers:
            self._get_executor()

    def _abandon(self, endpoints: List[_Worker]) -> None:
        for worker in endpoints:
            self._remove_endpoint(worker, "deadline", crash=False)
            worker.process.kill()
            worker.process.join(_CLOSE_GRACE_S)

    def _on_lost(self, ep: _Worker, reason: str,
                 orphans: List[Tuple[Any, int]]) -> None:
        if self._metrics is not None:
            self._metrics.incr("worker_crashes")
        if self._events is None:
            return
        by_call: Dict[Any, List[int]] = {}
        for call, index in orphans:
            by_call.setdefault(call, []).append(index)
        for call, indices in by_call.items():
            self._events.publish(
                WORKER_CRASHED,
                shard_indices=sorted(indices),
                attempt=max(call.attempts[i] for i in indices),
                pool_workers=self.workers,
            )

    def _shutdown(self, endpoints: List[_Worker]) -> None:
        for worker in endpoints:
            worker.outbox.put(_STOP)
            worker.outbox.put(None)
        deadline = time.monotonic() + _CLOSE_GRACE_S
        for worker in endpoints:
            worker.process.join(max(0.0, deadline - time.monotonic()))
            if worker.process.exitcode is None:
                worker.process.kill()
                worker.process.join()
            worker.conn.close()
