"""ClusterWorker.close() returns promptly, even after serving a client."""

import time

from repro.cluster import ClusterPool
from repro.cluster.worker import ClusterWorker


def _square(x):
    return x * x


def test_close_after_one_served_connection_is_prompt():
    worker = ClusterWorker(port=0, slots=1, heartbeat_s=0.2)
    host, port = worker.start()
    with ClusterPool(f"{host}:{port}") as pool:
        assert pool.run(_square, 6, timeout=30) == 36
    began = time.monotonic()
    worker.close()
    assert time.monotonic() - began < 0.5
