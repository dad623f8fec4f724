"""Parallel execution fabric: speedup and bounded dispatch overhead.

Not a paper artefact — this guards ``repro.parallel`` itself. Three
claims:

* results are identical at every worker count (the cheap end of the
  parity contract; ``tests/parallel/test_parity.py`` does it exhaustively);
* tiny replication counts **auto-fall back to serial** — process dispatch
  must never be paid where it cannot win (``MIN_SHARD_SIZE`` floor);
* with real cores available, a 4-worker sweep beats serial wall-clock.
  The speedup assertion self-skips below 2 usable cores (single-core CI
  runners and containers can only measure overhead, not speedup).
"""

import os
import time
from dataclasses import replace

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_point, run_sweep
from repro.parallel import MIN_SHARD_SIZE, ShardPlan
from repro.platform.cloud import PAPER_PLATFORM
from repro.workflow.generators import generate

WORKER_COUNTS = [0, 2, 4]


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def sweep_config() -> ExperimentConfig:
    """Small grid for the correctness cases (sub-second serial)."""
    return ExperimentConfig.smoke(
        families=("montage",), n_tasks=20, n_instances=2,
        budgets_per_workflow=3, n_reps=10, seed=2018,
        algorithms=("heft_budg", "minmin_budg"),
    )


def speedup_config() -> ExperimentConfig:
    """Compute-heavy grid for the timing cases: 20 points × 50 reps of a
    60-task simulation (~2 s serial), enough for fan-out to amortize
    fork + pickle dispatch."""
    return ExperimentConfig.smoke(
        families=("montage",), n_tasks=60, n_instances=2,
        budgets_per_workflow=5, n_reps=50, seed=2018,
        algorithms=("heft_budg", "minmin_budg"),
    )


def timed_sweep(workers, config=None):
    config = config or sweep_config()
    start = time.perf_counter()
    records = run_sweep(config, workers=workers)
    return time.perf_counter() - start, records


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_sweep_results_identical_at_any_worker_count(workers):
    _, records = timed_sweep(workers)
    _, serial = timed_sweep(0)
    strip = lambda rs: [replace(r, sched_seconds=0.0) for r in rs]  # noqa: E731
    assert strip(records) == strip(serial)


def test_tiny_inputs_fall_back_to_serial(monkeypatch):
    # Below the shard-size floor the plan is serial and run_point must not
    # build a pool at all — dispatch overhead on 7 reps can never pay off.
    n_reps = 2 * MIN_SHARD_SIZE - 1
    assert ShardPlan.plan(n_reps, workers=4).is_serial

    constructed = []

    class NoPool:
        def __init__(self, *args, **kwargs):
            constructed.append(args)
            raise AssertionError("WorkerPool built for a serial-size input")

    monkeypatch.setattr("repro.cluster.backend.WorkerPool", NoPool)
    wf = generate("montage", 15, rng=9, sigma_ratio=0.5)
    records = run_point(
        wf, PAPER_PLATFORM, "heft_budg", 2.0, n_reps, 9, workers=4
    )
    assert len(records) == n_reps and not constructed


def test_parallel_overhead_bounded():
    # Even with a single core (no speedup possible), fan-out must not blow
    # up wall-clock: fork + pickle overhead stays a small multiple.
    config = speedup_config()
    serial_s, _ = timed_sweep(0, config)
    parallel_s, _ = timed_sweep(2, config)
    assert parallel_s < max(2.0 * serial_s, serial_s + 5.0)


def test_four_worker_sweep_speedup():
    cores = usable_cores()
    if cores < 2:
        pytest.skip(f"only {cores} usable core(s): cannot measure speedup")
    config = speedup_config()
    serial_s, _ = timed_sweep(0, config)
    parallel_s, _ = timed_sweep(4, config)
    # 4 workers on >=4 cores should near-halve the wall clock; on 2-3
    # cores demand only a modest win.
    floor = 1.6 if cores >= 4 else 1.15
    assert serial_s / parallel_s > floor, (
        f"speedup {serial_s / parallel_s:.2f}x below {floor}x "
        f"({cores} cores, serial {serial_s:.2f}s, 4w {parallel_s:.2f}s)"
    )
