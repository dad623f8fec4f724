"""Process executor: a job past its deadline frees its worker process.

The parent bounds each worker call with the job's remaining budget. When
it expires, the pool kills the worker still computing the job and starts
a replacement, so the next job is served at once instead of queueing
behind a compute nobody is waiting for.
"""

import time

import pytest

from repro.errors import JobTimeoutError
from repro.service import SchedulingService
from repro.service import engine

_real_compute = engine._process_compute


def _stalling_compute(request_dict):
    """Worker entry point that hangs on the request marked ``rng=99``."""
    if request_dict["workflow"]["rng"] == 99:
        time.sleep(60)
    return _real_compute(request_dict)


def request_dict(rng=1):
    return {
        "workflow": {"family": "montage", "n_tasks": 15, "rng": rng,
                     "sigma_ratio": 0.5},
        "algorithm": "heft_budg",
        "budget": {"amount": 2.0},
        "evaluation": {"n_reps": 0},
    }


def test_next_job_is_served_by_the_respawned_worker(monkeypatch):
    # Patched before the service forks its worker, so the worker runs it.
    monkeypatch.setattr(engine, "_process_compute", _stalling_compute)
    with SchedulingService(max_workers=1, cache_size=0, job_timeout=2.0,
                           executor="process") as svc:
        (stuck_pid,) = svc._proc_pool.worker_stats()
        stalled = svc.submit(request_dict(rng=99))
        with pytest.raises(JobTimeoutError, match="process executor"):
            svc.result(stalled, timeout=30)
        began = time.monotonic()
        served = svc.submit(request_dict())
        assert svc.result(served, timeout=30).planned_makespan > 0
        assert time.monotonic() - began < 2.0
        stats = svc.stats()["workers"]
        assert stats[stuck_pid]["alive"] is False
        (fresh_pid,) = [pid for pid, s in stats.items() if s["alive"]]
        assert stats[fresh_pid]["tasks"] == 1
        assert svc._proc_pool.n_respawns == 1
        assert svc.health()["worker_count"] == 1
