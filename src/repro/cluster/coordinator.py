"""The coordinator side of the cluster fabric: :class:`ClusterPool`.

``ClusterPool`` is the socket transport of the dispatcher that also runs
:class:`repro.parallel.WorkerPool` (:mod:`repro.parallel.dispatch`), so
any call site that shards work over local processes can shard it over
machines instead. Shard results are a pure function of the shard, so the
merged output is **bit-identical to serial no matter which node computed
which shard, in what order, or how many times**. The transport adds:

* **liveness**: a node whose connection drops *or* whose heartbeats go
  stale past ``heartbeat_timeout`` is lost (a wedged node is handled
  exactly like a dead one), and its in-flight shards are reassigned;
* **work stealing**: once the queue drains, an idle node duplicates the
  longest-in-flight shard of a slow peer (after ``steal_after_s``); the
  first result wins, which is safe because shard results are
  deterministic;
* **deadlines**: a remote thread cannot be cancelled, so an expired
  map's late results are dropped and the slot frees when they arrive.

Observability: ``node.joined`` / ``node.lost`` / ``shard.reassigned``
events, the ``cluster_reassignments`` metric, and everything the
dispatcher records.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..errors import ClusterError, ClusterProtocolError
from ..obs.events import NODE_JOINED, NODE_LOST, SHARD_REASSIGNED
from ..parallel.dispatch import Dispatcher, Endpoint
from . import protocol

__all__ = ["ClusterPool"]

NodeSpec = Union[str, Tuple[str, int]]

#: Seconds allowed for the TCP connect and the handshake with one node.
CONNECT_TIMEOUT_S = 10.0


class _Node(Endpoint):
    """One connected worker node (internal)."""

    def __init__(
        self, address: str, sock: socket.socket, *, pid: int, slots: int
    ) -> None:
        super().__init__(address, pid=pid, slots=slots)
        self.sock = sock
        self._write_lock = threading.Lock()

    def write(self, data: bytes) -> None:
        with self._write_lock:
            self.sock.sendall(data)

    def hang_up(self) -> None:
        """Drop the connection, waking the reader thread."""
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()


class ClusterPool(Dispatcher):
    """Dispatch shards to remote ``repro-exp worker`` nodes.

    Parameters
    ----------
    nodes:
        ``"host:port,host:port"`` or a sequence of ``"host:port"`` /
        ``(host, port)`` specs. Every node must accept the handshake at
        construction time — a cluster that starts degraded is a config
        error, while a node lost *later* is handled by reassignment.
    max_retries:
        Reassignment attempts per shard after node losses before
        :class:`~repro.errors.WorkerCrashError`.
    heartbeat_timeout:
        Seconds of heartbeat silence after which a node is declared lost.
    steal_after_s:
        Age at which an idle node may duplicate a slow peer's oldest
        in-flight shard (``None`` disables work stealing).
    metrics / events:
        Optional :class:`~repro.service.metrics.MetricsRegistry` /
        :class:`~repro.obs.events.EventBus`, receiving the pool-parity
        counters plus ``cluster_reassignments`` and the node lifecycle
        events.
    token:
        Shared handshake token (must match the workers').

    :attr:`n_crashes` counts node losses; :attr:`n_respawns` stays 0
    because the pool never reconnects.
    """

    _noun = "node"

    def __init__(
        self,
        nodes: Union[str, Sequence[NodeSpec]],
        *,
        max_retries: int = 2,
        heartbeat_timeout: float = 10.0,
        steal_after_s: Optional[float] = 30.0,
        metrics: Optional[Any] = None,
        events: Optional[Any] = None,
        token: Optional[str] = None,
    ) -> None:
        super().__init__(max_retries=max_retries, metrics=metrics, events=events)
        specs = self._parse_specs(nodes)
        if not specs:
            raise ClusterError("ClusterPool needs at least one node")
        self.heartbeat_timeout = heartbeat_timeout
        self.steal_after_s = steal_after_s
        self._poll_s = max(0.05, min(1.0, heartbeat_timeout / 4.0))
        self._token = token
        try:
            for host, port in specs:
                self._add_endpoint(self._connect(host, port), self._read_loop)
        except Exception:
            self.close()
            raise
        #: Total advertised slots — drives ShardPlan sizing, mirroring
        #: ``WorkerPool.workers``.
        self.workers = sum(node.slots for node in self._endpoints)

    # ------------------------------------------------------------------
    # construction helpers

    @staticmethod
    def _parse_specs(
        nodes: Union[str, Sequence[NodeSpec]]
    ) -> List[Tuple[str, int]]:
        if isinstance(nodes, str):
            nodes = [part for part in nodes.split(",") if part.strip()]
        return [
            protocol.parse_address(part) if isinstance(part, str)
            else (part[0], int(part[1]))
            for part in nodes
        ]

    def _connect(self, host: str, port: int) -> _Node:
        address = f"{host}:{port}"
        try:
            sock = socket.create_connection(
                (host, port), timeout=CONNECT_TIMEOUT_S
            )
        except OSError as exc:
            raise ClusterError(
                f"cannot connect to worker node {address}: {exc}"
            ) from exc
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            protocol.send_frame(sock, protocol.hello_frame(token=self._token))
            welcome = protocol.recv_frame(sock)
            if welcome is not None and welcome.get("type") == "error":
                raise ClusterProtocolError(
                    f"node {address} refused the handshake: "
                    f"{welcome.get('exception', {}).get('message', '')}"
                )
            protocol.check_handshake(welcome, expect="welcome")
        except (ClusterProtocolError, OSError) as exc:
            sock.close()
            if isinstance(exc, ClusterProtocolError):
                raise
            raise ClusterError(
                f"handshake with node {address} failed: {exc}"
            ) from exc
        sock.settimeout(None)
        node = _Node(
            address, sock, pid=int(welcome["pid"]), slots=int(welcome["slots"])
        )
        if self._events is not None:
            self._events.publish(
                NODE_JOINED, node=address, pid=node.pid, slots=node.slots
            )
        return node

    def _read_loop(self, node: _Node) -> None:
        reason = "connection closed"
        while True:
            try:
                frame = protocol.recv_frame(node.sock)
            except (ClusterProtocolError, OSError):
                break
            if frame is None or frame.get("type") == "bye":
                break
            node.last_seen = time.time()
            kind = frame.get("type")
            task_id = frame.get("task_id")
            if kind == "result":
                try:
                    ok, value = True, protocol.decode_payload(frame["payload"])
                except ClusterProtocolError as exc:
                    ok, value = False, exc
                self._complete(
                    node, task_id, ok, value,
                    float(frame.get("elapsed_s", 0.0)), frame.get("trace"),
                )
            elif kind == "error":
                exc = protocol.decode_exception(frame.get("exception", {}))
                if frame.get("kind") == "protocol" or task_id is None:
                    reason = f"protocol error: {exc}"
                    break
                self._complete(node, task_id, False, exc, 0.0, None)
            # heartbeats only refresh last_seen
        self._remove_endpoint(node, reason)

    # ------------------------------------------------------------------
    # dispatcher hooks

    def _encode(self, task_id: int, fn: Callable[[Any], Any], item: Any,
                trace_ctx: Optional[Dict[str, Any]]) -> bytes:
        payload = protocol.encode_payload((fn, item))
        return protocol.encode_frame(
            protocol.shard_frame(task_id, payload, trace=trace_ctx)
        )

    def _poll(self) -> None:
        stale_before = time.time() - self.heartbeat_timeout
        for node in self._live():
            if node.last_seen < stale_before:
                self._remove_endpoint(node, "heartbeat stale")

    def _steal(self, call: Any) -> None:
        """Duplicate the oldest slow shard of ``call`` onto an idle node."""
        if self.steal_after_s is None:
            return
        now = time.monotonic()
        with self._cond:
            idle = [node for node in self._live() if not node.inflight]
            candidates = sorted(
                (sent, index)
                for index, _node, sent in call.dispatches.values()
                if not call.done[index]
                and call.copies(index) == 1
                and now - sent >= self.steal_after_s
            )
        # An idle node holds nothing, so it never already holds a candidate.
        for node in idle:
            for _sent, index in candidates:
                if call.copies(index) == 1:
                    self._send_shard(
                        call.fn, call.items, index, node, call, call.trace_ctx
                    )
                    break

    def _on_lost(self, ep: _Node, reason: str,
                 orphans: List[Tuple[Any, int]]) -> None:
        ep.hang_up()
        if self._events is not None:
            self._events.publish(
                NODE_LOST, node=ep.address, pid=ep.pid, reason=reason,
                inflight=len(orphans),
            )
        for call, index in orphans:
            attempt = call.attempts[index]
            if attempt > self.max_retries:
                continue
            if self._metrics is not None:
                self._metrics.incr("cluster_reassignments")
            if self._events is not None:
                self._events.publish(
                    SHARD_REASSIGNED, shard_index=index,
                    from_node=ep.address, attempt=attempt,
                )

    def _shutdown(self, endpoints: List[_Node]) -> None:
        bye = protocol.encode_frame(protocol.bye_frame("coordinator closing"))
        for node in endpoints:
            try:
                node.write(bye)
            except OSError:
                pass
            node.outbox.put(None)
            node.hang_up()
