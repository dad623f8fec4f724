"""The benchmark's workloads and metrics, the source of ``BENCHMARK.json``.

End-to-end metrics are shared by every workload: each workload is a
stream of *points*, a point being one schedule (computed, or served from
the response cache) plus its Monte Carlo replications, so throughput and
the quality of the simulated results mean the same thing on all of them.
The quality metrics are deterministic for a seed: any change to schedules
or simulated results moves them.

Per-layer metrics come from the traced run. Each names the workload it
is measured on and the end-to-end metric a change to that layer should
move there; on other workloads it reads 0 (the layer is not traced
there, or not reached).
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple

__all__ = ["WORKLOADS", "END_TO_END", "PER_LAYER", "manifest"]

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 30

#: name -> the one-line reason the workload exists.
WORKLOADS: Dict[str, str] = {
    "sweep": (
        "Sec. V-A protocol via run_sweep at paper scale (90 tasks, 3 families, "
        "4 Fig. 1 algorithms, 25 reps), each family serial then workers=2: "
        "scheduling, replication, pool"
    ),
    "refine": (
        "HEFTBUDG+ on a fixed 45-task MONTAGE at the medium budget (Table "
        "III(a)'s refined cell, smaller): evaluate_schedule over candidate mappings"
    ),
    "serve": (
        "closed loop, 1 client, in-process SchedulingService: 200 hits on a "
        "warm 32-spec pool per fresh 30-task spec, so hits carry about 2/3 of "
        "the time"
    ),
}


class EndToEnd(NamedTuple):
    """A metric every workload reports with tracing off."""

    name: str
    unit: str
    better: str
    bound: float


END_TO_END: List[EndToEnd] = [
    EndToEnd("setup_s", "s", "lower", 0.25),
    EndToEnd("points_per_s", "1/s", "higher", 0.25),
    EndToEnd("success_rate", "ratio", "higher", 0.05),
    EndToEnd("makespan_geomean_s", "s", "lower", 0.25),
]


class PerLayer(NamedTuple):
    """A traced-run metric, the workload it is read on and what it moves."""

    name: str
    unit: str
    better: str
    workload: str
    moves: str


_ALL = "all"

PER_LAYER: List[PerLayer] = [
    # trace accounting, every workload
    PerLayer("trace.wall_s", "s", "lower", _ALL, "points_per_s"),
    PerLayer("trace.untraced_wall_s", "s", "lower", _ALL, "points_per_s"),
    PerLayer("trace.overhead_s", "s", "lower", _ALL, "none (tracing cost)"),
    PerLayer("trace.overhead_share", "ratio", "lower", _ALL, "none (tracing cost)"),
    PerLayer("trace.residual_s", "s", "lower", _ALL, "points_per_s"),
    PerLayer("trace.residual_share", "ratio", "lower", _ALL, "points_per_s"),
    PerLayer("trace.spans", "count", "lower", _ALL, "none (trace size)"),
    PerLayer("trace.count_drift", "count", "lower", _ALL, "none (must be 0)"),
    # self time per layer, every workload
    *(
        PerLayer(f"self.{layer}_s", "s", "lower", _ALL, "points_per_s")
        for layer in (
            "bench", "workflow", "experiments", "scheduling", "simulation",
            "parallel", "service", "admission", "obs",
        )
    ),
    # sweep
    *(
        PerLayer(f"scheduling.{algo}.schedule_ms", "ms", "lower", "sweep",
               "points_per_s")
        for algo in ("minmin", "heft", "minmin_budg", "heft_budg")
    ),
    PerLayer("scheduling.planning.evaluate_calls", "count", "lower", "sweep", "points_per_s"),
    PerLayer("scheduling.share", "ratio", "lower", "sweep", "points_per_s"),
    PerLayer("simulation.replications_s", "s", "lower", "sweep", "points_per_s"),
    PerLayer("simulation.execute_calls", "count", "lower", "sweep", "points_per_s"),
    PerLayer("simulation.execute_ms", "ms", "lower", "sweep", "points_per_s"),
    PerLayer("workflow.generate_s", "s", "lower", "sweep", "points_per_s"),
    PerLayer("experiments.budget_grid_s", "s", "lower", "sweep", "points_per_s"),
    PerLayer("simulation.sample_weights_s", "s", "lower", "sweep", "points_per_s"),
    PerLayer("experiments.residual_s", "s", "lower", "sweep", "points_per_s"),
    # refine
    PerLayer("scheduling.heft_budg_s", "s", "lower", "refine", "points_per_s"),
    PerLayer("scheduling.refine_s", "s", "lower", "refine", "points_per_s"),
    PerLayer("simulation.evaluate_calls", "count", "lower", "refine", "points_per_s"),
    PerLayer("simulation.evaluate_ms", "ms", "lower", "refine", "points_per_s"),
    PerLayer("scheduling.reassign_calls", "count", "lower", "refine", "points_per_s"),
    PerLayer("scheduling.reassign_s", "s", "lower", "refine", "points_per_s"),
    PerLayer("simulation.flowpool_advance_calls", "count", "lower", "refine", "points_per_s"),
    PerLayer("refine.residual_s", "s", "lower", "refine", "points_per_s"),
    # serve: per cache hit unless named cold
    PerLayer("service.requests", "count", "higher", "serve", "none (base of ratios)"),
    PerLayer("service.cache_hit_ratio", "ratio", "higher", "serve", "points_per_s"),
    PerLayer("service.coerce_us", "us", "lower", "serve", "points_per_s"),
    PerLayer("service.fingerprint_calls.cached", "count", "lower", "serve", "points_per_s"),
    PerLayer("service.fingerprint_calls.cold", "count", "lower", "serve", "points_per_s"),
    PerLayer("admission.admit_us", "us", "lower", "serve", "points_per_s"),
    PerLayer("admission.reconcile_us", "us", "lower", "serve", "points_per_s"),
    PerLayer("service.cache_us", "us", "lower", "serve", "points_per_s"),
    PerLayer("obs.slo_observe_us", "us", "lower", "serve", "points_per_s"),
    PerLayer("service.residual_us", "us", "lower", "serve", "points_per_s"),
    PerLayer("service.compute_ms", "ms", "lower", "serve", "points_per_s"),
    *(
        PerLayer(f"service.stage.{path}.{stage}_us", "us", "lower", "serve",
                 "points_per_s")
        for path in ("cached", "cold")
        for stage in ("admit", "estimate", "reserve", "cache", "batched",
                      "reconcile", "wall")
    ),
    *(
        PerLayer(f"service.{path}_{stat}", unit, better, "serve", "points_per_s")
        for path in ("cached", "cold")
        for stat, unit, better in (
            ("p50_ms", "ms", "lower"),
            ("tail_ms", "ms", "lower"),
            ("tail_q", "percentile", "higher"),
            ("n", "count", "higher"),
        )
    ),
    # sweep, pooled slices
    PerLayer("parallel.pool_start_s", "s", "lower", "sweep", "points_per_s"),
    PerLayer("parallel.map_s", "s", "lower", "sweep", "points_per_s"),
    PerLayer("parallel.dispatch_s", "s", "lower", "sweep", "points_per_s"),
    PerLayer("parallel.close_s", "s", "lower", "sweep", "points_per_s"),
    PerLayer("parallel.tasks", "count", "lower", "sweep", "points_per_s"),
    PerLayer("parallel.retries", "count", "lower", "sweep", "points_per_s"),
    PerLayer("parallel.busy_frac", "ratio", "higher", "sweep", "points_per_s"),
]


def manifest() -> Dict[str, Any]:
    """The ``BENCHMARK.json`` document these tables describe."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [m._asdict() for m in END_TO_END],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
