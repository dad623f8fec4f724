"""The shared dispatcher: concurrent maps and deadlines on both transports.

Every completion is routed by task id to the ``map`` call that owns it,
so many threads may share one pool; an expired deadline frees the local
worker that was stuck on it.
"""

import threading
import time

import pytest

from repro.cluster import ClusterPool
from repro.cluster.worker import ClusterWorker
from repro.parallel import WorkerPool


def square(x):
    return x * x


def slow_square(x):
    time.sleep(0.05)
    return x * x


def slow(seconds):
    time.sleep(seconds)
    return seconds


def run_from_threads(pool, fn, n_threads=8, timeout=5.0):
    """Call ``pool.run(fn, i)`` from ``n_threads`` threads at once."""
    results, errors = {}, []
    start = threading.Barrier(n_threads)

    def one(i):
        start.wait()
        try:
            results[i] = pool.run(fn, i, timeout=timeout)
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [threading.Thread(target=one, args=(i,)) for i in range(n_threads)]
    began = time.monotonic()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout + 5.0)
    return results, errors, time.monotonic() - began


@pytest.fixture()
def cluster_nodes():
    with ClusterWorker(port=0, slots=2, heartbeat_s=0.2) as a, ClusterWorker(
        port=0, slots=2, heartbeat_s=0.2
    ) as b:
        yield ",".join(f"{w.address[0]}:{w.address[1]}" for w in (a, b))


class TestConcurrentMaps:
    def test_cluster_pool_serves_eight_threads(self, cluster_nodes):
        with ClusterPool(cluster_nodes, heartbeat_timeout=5.0) as pool:
            results, errors, elapsed = run_from_threads(pool, slow_square)
        assert errors == []
        assert results == {i: i * i for i in range(8)}
        assert elapsed < 5.0

    def test_worker_pool_serves_eight_threads(self):
        with WorkerPool(2) as pool:
            results, errors, elapsed = run_from_threads(pool, slow_square)
            stats = pool.worker_stats()
        assert errors == []
        assert results == {i: i * i for i in range(8)}
        assert elapsed < 5.0
        assert sum(s["tasks"] for s in stats.values()) == 8

    def test_concurrent_maps_keep_their_own_order(self, cluster_nodes):
        with ClusterPool(cluster_nodes) as pool:
            out = {}

            def one(offset):
                items = list(range(offset, offset + 10))
                out[offset] = pool.map(square, items, timeout=30)

            threads = [
                threading.Thread(target=one, args=(k * 100,)) for k in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(35)
        assert out == {
            k * 100: [x * x for x in range(k * 100, k * 100 + 10)]
            for k in range(4)
        }


class TestDeadlines:
    def test_expired_deadline_frees_the_worker(self):
        pool = WorkerPool(1)
        try:
            pool.run(square, 2)
            (stuck_pid,) = pool.worker_stats()
            began = time.monotonic()
            with pytest.raises(TimeoutError, match="timed out"):
                pool.map(slow, [30.0], timeout=0.2)
            assert time.monotonic() - began < 2.0
            began = time.monotonic()
            assert pool.run(square, 3) == 9
            assert time.monotonic() - began < 2.0
            stats = pool.worker_stats()
            assert stats[stuck_pid]["alive"] is False
            assert pool.alive_count == 1
            assert pool.n_respawns == 1 and pool.n_crashes == 0
        finally:
            began = time.monotonic()
            pool.close()
            assert time.monotonic() - began < 1.0

    def test_waiting_call_is_served_after_a_deadline_kill(self):
        # The only worker is stuck on an item whose map expires; a second
        # call waiting for it is served by the replacement, and the kill
        # is not counted as a crash.
        with WorkerPool(1, max_retries=0) as pool:
            box = {}

            def expire():
                try:
                    pool.map(slow, [30.0], timeout=0.5)
                except TimeoutError as exc:
                    box["timeout"] = exc

            expirer = threading.Thread(target=expire)
            expirer.start()
            time.sleep(0.2)  # the slow item is running
            began = time.monotonic()
            assert pool.run(square, 4, timeout=10) == 16
            assert time.monotonic() - began < 5.0
            expirer.join(5)
            assert not expirer.is_alive()
            assert isinstance(box.get("timeout"), TimeoutError)
            assert pool.n_crashes == 0 and pool.n_respawns == 1

    def test_cluster_deadline_drops_late_result(self, cluster_nodes):
        with ClusterPool(cluster_nodes) as pool:
            with pytest.raises(TimeoutError):
                pool.map(slow, [1.0], timeout=0.2)
            # the node slot stays taken until the late result arrives,
            # but the other slots serve the next call at once
            assert pool.run(square, 5, timeout=5) == 25
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                stats = pool.worker_stats().values()
                if sum(s["inflight"] for s in stats) == 0:
                    break
                time.sleep(0.05)
            assert sum(s["inflight"] for s in stats) == 0
            # the dropped late result counts in no task tally
            assert sum(s["tasks"] for s in stats) == 1
