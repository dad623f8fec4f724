"""The ordered-map dispatcher behind ``WorkerPool`` and ``ClusterPool``.

Both pools run ``fn`` over ``items`` on *endpoints* (local worker
processes or remote nodes) and share everything but the wire:

* **ordered results** by position, never in completion order, so
  ShardPlan merges stay bit-identical to the serial loop;
* **bounded in-flight work**: at most ``2 × slots`` dispatches per node
  and one per local worker, so a thousand-cell sweep is never pickled
  up front;
* **capped retries**: a lost endpoint's in-flight items are requeued on
  the survivors, ``max_retries`` times at most; past that the map raises
  :class:`~repro.errors.WorkerCrashError` naming the items (deliberately
  not a ``ReproError``, so callers with their own retry policy may retry);
* **fn exceptions** propagate unchanged and are never retried;
* **deadlines**: ``map(timeout=...)`` raises :class:`TimeoutError` and
  forgets the call's dispatches (late results are dropped); endpoints
  still running one go to :meth:`Dispatcher._abandon`;
* **trace propagation**: a live caller tracer ships its ``trace_id``;
  :func:`invoke` runs the item under a worker-local tracer and the span
  payload merges under the span the caller had open;
* **metrics**: ``worker_tasks`` / ``worker_task_seconds`` and
  :meth:`Dispatcher.worker_stats`.

Completions are routed by task id to the ``map`` call that owns them, so
concurrent ``map`` / ``run`` calls from several threads are safe.

A transport subclasses :class:`Dispatcher` and drives one endpoint
lifecycle: register (:meth:`~Dispatcher._add_endpoint`), send
(:meth:`~Dispatcher._encode` plus :meth:`Endpoint.write`), result or
error (:meth:`~Dispatcher._complete`), remove
(:meth:`~Dispatcher._remove_endpoint`).
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..errors import WorkerCrashError
from ..obs.tracing import Tracer, get_tracer, use_tracer

__all__ = ["Dispatcher", "Endpoint", "invoke", "reset_process_globals"]


def reset_process_globals() -> None:
    """Reset the process-global ledger and tracer to their null versions.

    A worker computes and returns values; the parent records, in serial
    order. A forked worker inherits the parent's open SQLite connection
    and span buffers and must never write to either.
    """
    from ..obs.ledger import set_ledger
    from ..obs.tracing import set_tracer

    set_ledger(None)
    set_tracer(None)


def invoke(
    fn: Callable[[Any], Any],
    item: Any,
    trace_ctx: Optional[Dict[str, Any]] = None,
) -> Tuple[Any, float, Optional[Dict[str, Any]]]:
    """Worker-side wrapper: run ``fn(item)``; return result, seconds, trace.

    With a ``trace_ctx`` (the parent's tracer was live) the item runs
    under a worker-local :class:`~repro.obs.tracing.Tracer` sharing the
    parent's ``trace_id``, and its
    :meth:`~repro.obs.tracing.Tracer.export_payload` comes back as the
    third element. Without one (the common untraced path) the third
    element is ``None`` and tracing costs nothing.
    """
    start = time.perf_counter()
    if trace_ctx is None:
        result = fn(item)
        return result, time.perf_counter() - start, None
    tracer = Tracer(trace_id=trace_ctx.get("trace_id"))
    with use_tracer(tracer):
        result = fn(item)
    return result, time.perf_counter() - start, tracer.export_payload()


class Endpoint:
    """One place work runs: a local worker process or a remote node.

    ``address`` keys :meth:`Dispatcher.worker_stats` (a pid or
    ``host:port``). A sender thread drains :attr:`outbox` into
    :meth:`write`, so a busy peer never blocks the caller's ``map``.
    """

    def __init__(self, address: Any, *, pid: int, slots: int) -> None:
        self.address = address
        self.pid = pid
        self.slots = slots
        self.alive = True
        self.last_seen = time.time()
        self.tasks = 0
        self.busy_s = 0.0
        #: Task ids in send order: the first is the one running.
        self.inflight: Dict[int, None] = {}
        self.outbox: "queue.SimpleQueue[Optional[bytes]]" = queue.SimpleQueue()

    def write(self, data: bytes) -> None:
        """Put one encoded message on the wire (transport-specific)."""
        raise NotImplementedError


class _Call:
    """Book-keeping of one :meth:`Dispatcher.map` call (internal)."""

    def __init__(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> None:
        n_items = len(items)
        self.fn = fn
        self.items = items
        self.results: List[Any] = [None] * n_items
        self.done = [False] * n_items
        self.attempts = [0] * n_items
        self.pending: deque = deque(range(n_items))
        self.n_done = 0
        self.error: Optional[BaseException] = None
        # task_id -> (item index, endpoint, dispatch time)
        self.dispatches: Dict[int, Tuple[int, Endpoint, float]] = {}
        self.tracer = get_tracer()
        live = self.tracer.enabled
        self.trace_ctx = {"trace_id": self.tracer.trace_id} if live else None
        self.merge_parent_id = self.tracer.current_span_id() if live else None

    def copies(self, index: int) -> int:
        """How many dispatches of item ``index`` are in flight."""
        return sum(i == index for i, _ep, _sent in self.dispatches.values())


class Dispatcher:
    """Ordered, crash-tolerant ``map`` over a transport's endpoints.

    Subclasses provide the transport: :meth:`_encode`, a reader per
    endpoint, and optionally the hooks :meth:`_ensure_endpoints`,
    :meth:`_poll`, :meth:`_steal`, :meth:`_abandon`, :meth:`_on_lost` and
    :meth:`_shutdown`.
    """

    #: What an endpoint is called in error messages.
    _noun = "endpoint"
    #: Longest wait between :meth:`_poll` calls (``None``: no polling).
    _poll_s: Optional[float] = None
    #: Dispatches an endpoint may hold per slot; a second one hides a
    #: network round trip behind the item that is running.
    _per_slot = 2

    def __init__(
        self, *, max_retries: int, metrics: Optional[Any], events: Optional[Any]
    ) -> None:
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        self.max_retries = max_retries
        self._metrics = metrics
        self._events = events
        self._cond = threading.Condition()
        self._dispatch_lock = threading.Lock()
        self._endpoints: List[Endpoint] = []
        self._tasks: Dict[int, _Call] = {}
        self._calls: Set[_Call] = set()
        self._task_ids = itertools.count(1)
        self._generation = 0
        self._closed = False
        self.n_crashes = 0
        self.n_respawns = 0
        self.n_reassignments = 0

    # ------------------------------------------------------------------
    # introspection

    def _live(self) -> List[Endpoint]:
        return [ep for ep in self._endpoints if ep.alive]

    @property
    def alive_count(self) -> int:
        """Number of endpoints currently believed alive."""
        return len(self._live())

    def worker_stats(self) -> Dict[Any, Dict[str, Any]]:
        """Per-endpoint snapshot keyed by address; lost ones stay listed.

        ``tasks`` / ``busy_s`` / ``last_seen`` plus ``pid``, ``slots``,
        ``alive`` and ``inflight``.
        """
        with self._cond:
            return {
                ep.address: {
                    "tasks": ep.tasks, "busy_s": ep.busy_s,
                    "last_seen": ep.last_seen, "pid": ep.pid,
                    "slots": ep.slots, "alive": ep.alive,
                    "inflight": len(ep.inflight),
                }
                for ep in self._endpoints
            }

    # ------------------------------------------------------------------
    # lifecycle

    def close(self) -> None:
        """Stop every endpoint and fail any map still running; idempotent."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            live = self._live()
            for ep in live:
                ep.alive = False
            for call in self._calls:
                call.error = call.error or RuntimeError(
                    f"{type(self).__name__} closed during map")
            self._changed()
        self._shutdown(live)

    def __enter__(self) -> "Dispatcher":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # execution

    def run(self, fn: Callable[[Any], Any], item: Any,
            timeout: Optional[float] = None) -> Any:
        """Run one ``fn(item)`` on some endpoint (a one-item :meth:`map`)."""
        (result,) = self.map(fn, [item], timeout=timeout)
        return result

    def map(self, fn: Callable[[Any], Any], items: Sequence[Any], *,
            timeout: Optional[float] = None) -> List[Any]:
        """Run ``fn`` over ``items`` on the endpoints, results in order.

        Exceptions raised by ``fn`` propagate unchanged and are never
        retried; only a lost endpoint requeues its items. The first
        result per item wins and duplicates are dropped. ``timeout``
        bounds the whole call and raises :class:`TimeoutError`.
        """
        call = _Call(fn, items)
        deadline = None if timeout is None else time.monotonic() + timeout
        expired = False
        with self._cond:
            if self._closed:
                raise RuntimeError(f"{type(self).__name__} is closed")
            if not items:
                return []
            self._calls.add(call)
        try:
            while True:
                with self._cond:
                    if call.error is not None:
                        raise call.error
                    if call.n_done == len(items):
                        return call.results
                    generation = self._generation
                self._fill(call)
                wait_s = self._poll_s
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        expired = True
                        raise TimeoutError(
                            f"{type(self).__name__}.map timed out with "
                            f"{len(call.dispatches)} in-flight and "
                            f"{len(call.pending)} queued items"
                        )
                    wait_s = remaining if wait_s is None else min(wait_s, remaining)
                with self._cond:
                    if self._generation == generation:
                        self._cond.wait(wait_s)
                self._poll()
        finally:
            self._forget(call, expired)

    # ------------------------------------------------------------------
    # dispatch internals

    def _changed(self) -> None:
        """Wake every waiting map (caller holds ``_cond``)."""
        self._generation += 1
        self._cond.notify_all()

    def _fill(self, call: _Call) -> None:
        """Dispatch ``call``'s queued items into free endpoint capacity."""
        with self._dispatch_lock:
            self._ensure_endpoints()
            plan = []
            with self._cond:
                free = {
                    ep: self._per_slot * ep.slots - len(ep.inflight)
                    for ep in self._live()
                }
                if not free:
                    unfinished = [i for i, done in enumerate(call.done) if not done]
                    raise WorkerCrashError(
                        f"all {self._noun}s lost; "
                        f"{len(unfinished)} item(s) unfinished",
                        shard_indices=tuple(unfinished),
                    )
                while call.pending:
                    ep = max(free, key=free.__getitem__)
                    if free[ep] <= 0:
                        break
                    index = call.pending.popleft()
                    if not call.done[index]:
                        plan.append((index, ep))
                        free[ep] -= 1
            for index, ep in plan:
                if not self._send_shard(
                    call.fn, call.items, index, ep, call, call.trace_ctx
                ):
                    with self._cond:
                        call.pending.appendleft(index)
            if not call.pending:
                self._steal(call)

    def _send_shard(self, fn: Callable[[Any], Any], items: Sequence[Any],
                    index: int, endpoint: Endpoint, call: _Call,
                    trace_ctx: Optional[Dict[str, Any]]) -> bool:
        """Record one dispatch of ``items[index]`` and queue it for sending.

        The dispatch is on record before this returns (and before its
        bytes leave), so neither its result nor the endpoint's loss can
        race ahead of it. ``False`` when the endpoint is already lost.
        """
        task_id = next(self._task_ids)
        data = self._encode(task_id, fn, items[index], trace_ctx)
        with self._cond:
            if not endpoint.alive:
                return False
            endpoint.inflight[task_id] = None
            self._tasks[task_id] = call
            call.dispatches[task_id] = (index, endpoint, time.monotonic())
        endpoint.outbox.put(data)
        return True

    def _forget(self, call: _Call, expired: bool) -> None:
        """Drop a finished call's routes; late results for it are dropped."""
        with self._cond:
            self._calls.discard(call)
            stuck = [
                ep for task_id, (_i, ep, _t) in call.dispatches.items()
                if ep.alive and next(iter(ep.inflight), None) == task_id
            ]
            for task_id in call.dispatches:
                self._tasks.pop(task_id, None)
            call.dispatches.clear()
        if expired and stuck:
            self._abandon(stuck)

    # ------------------------------------------------------------------
    # endpoint lifecycle, driven by the transport

    def _add_endpoint(self, ep: Endpoint, reader: Callable[[Any], None]) -> None:
        """Register ``ep`` and start its sender and reader threads."""
        with self._cond:
            self._endpoints.append(ep)
            self._changed()
        for target, role in ((self._send_loop, "send"), (reader, "recv")):
            threading.Thread(
                target=target, args=(ep,), name=f"repro-{role}-{ep.address}",
                daemon=True,
            ).start()

    def _send_loop(self, ep: Endpoint) -> None:
        while True:
            data = ep.outbox.get()
            if data is None:
                return
            try:
                ep.write(data)
            except OSError:
                self._remove_endpoint(ep, "send failed")
                return

    def _complete(self, ep: Endpoint, task_id: Any, ok: bool, value: Any,
                  elapsed: float, trace: Optional[Dict[str, Any]]) -> None:
        """Record one answered dispatch: ``value`` is its result or error."""
        with self._cond:
            ep.inflight.pop(task_id, None)
            ep.last_seen = time.time()
            self._changed()
            call = self._tasks.pop(task_id, None)
            if call is None:
                return  # its map already returned, failed or expired
            index = call.dispatches.pop(task_id)[0]
            if ok:
                ep.tasks += 1
                ep.busy_s += elapsed
                if self._metrics is not None:
                    self._metrics.incr("worker_tasks")
                    self._metrics.observe("worker_task_seconds", elapsed)
            if call.done[index]:
                return  # a duplicate finished second: suppressed
            if not ok:
                call.error = call.error or value
                return
            if trace is not None and call.trace_ctx is not None:
                call.tracer.merge_payload(
                    trace, parent_id=call.merge_parent_id, worker_pid=ep.pid
                )
            call.results[index] = value
            call.done[index] = True
            call.n_done += 1

    def _remove_endpoint(self, ep: Endpoint, reason: str, *,
                         crash: bool = True) -> None:
        """Retire ``ep`` and requeue its in-flight items on the survivors.

        A crash charges every orphaned item one attempt (an item over
        ``max_retries`` fails its map with :class:`WorkerCrashError`),
        counts in :attr:`n_crashes` and reaches :meth:`_on_lost`. A
        retirement (``crash=False``: a deadline kill) charges, counts and
        publishes nothing.
        """
        with self._cond:
            if not ep.alive:
                return
            ep.alive = False
            ep.outbox.put(None)
            orphans: List[Tuple[_Call, int]] = []
            exhausted: Dict[_Call, List[int]] = {}
            for task_id in ep.inflight:
                call = self._tasks.pop(task_id, None)
                if call is None:
                    continue
                index = call.dispatches.pop(task_id)[0]
                if call.done[index] or call.copies(index):
                    continue  # answered, or a duplicate still runs
                orphans.append((call, index))
                call.attempts[index] += crash
                if call.attempts[index] > self.max_retries:
                    exhausted.setdefault(call, []).append(index)
                else:
                    call.pending.append(index)
                    self.n_reassignments += crash
            ep.inflight.clear()
            for call, indices in exhausted.items():
                call.error = call.error or WorkerCrashError(
                    f"{self._noun} {ep.address} lost and {len(indices)} "
                    f"item(s) exhausted {self.max_retries} retries",
                    shard_indices=tuple(sorted(indices)),
                )
            self.n_crashes += crash
            self._changed()
        if crash:
            self._on_lost(ep, reason, orphans)

    # ------------------------------------------------------------------
    # transport hooks

    def _encode(self, task_id: int, fn: Callable[[Any], Any], item: Any,
                trace_ctx: Optional[Dict[str, Any]]) -> bytes:
        """Frame one dispatch for :meth:`Endpoint.write`."""
        raise NotImplementedError

    def _ensure_endpoints(self) -> None:
        """Bring endpoints up before a dispatch pass (default: nothing)."""

    def _poll(self) -> None:
        """Periodic liveness check between waits (default: nothing)."""

    def _steal(self, call: _Call) -> None:
        """Duplicate slow dispatches once the queue drains (default: no)."""

    def _abandon(self, endpoints: List[Any]) -> None:
        """Endpoints still running an expired map's item (default: keep)."""

    def _on_lost(self, ep: Any, reason: str,
                 orphans: List[Tuple[_Call, int]]) -> None:
        """Publish a crash: ``orphans`` are the (call, item) pairs it hit."""

    def _shutdown(self, endpoints: List[Any]) -> None:
        """Stop the given (already retired) endpoints."""
