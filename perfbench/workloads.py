"""The benchmark's workloads.

Each workload is a single load-generating process (one client thread; the
pooled sweep units add two worker processes) that drives the program
through its public API. A workload runs in *units*: one ``run_sweep``
call, one HEFTBUDG+ point, or one service request. Every unit returns
the points it completed, the wall time spent inside the program's calls,
and the output checks that failed.

Units run in cycles: :attr:`Workload.cycle` names the *kind* of every
unit of one cycle, and a unit of a given kind repeats the same work
(the same ``run_sweep`` config, the same HEFTBUDG+ instance) or work of
the same shape (a cache hit, a fresh request of one family and
algorithm). Throughput is taken per kind from its repeats
(:func:`perfbench.stats.cycle_rate`), so it does not depend on how many
cycles fitted into the measured seconds.

The first cycle always runs and its simulated results make the
deterministic quality metrics (``success_rate``,
``makespan_geomean_s``), so those depend on the seed alone. The makespan
is aggregated with a geometric mean because the families' makespans
differ by an order of magnitude: an arithmetic mean would follow the
largest instance alone.
"""

from __future__ import annotations

import math
import random
import time
from contextlib import nullcontext
from dataclasses import fields, replace
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.admission.controller import AdmissionController
from repro.errors import ScheduleValidationError
from repro.experiments import budgets as budgets_mod
from repro.experiments import runner
from repro.experiments.budgets import medium_budget
from repro.experiments.config import ExperimentConfig
from repro.obs.slo import SLOMonitor
from repro.parallel.pool import WorkerPool
from repro.platform.cloud import PAPER_PLATFORM
from repro.scheduling import refine as refine_mod
from repro.scheduling.heft import HeftBudgScheduler
from repro.scheduling.planning import PlanningState
from repro.scheduling.registry import SCHEDULERS, make_scheduler
from repro.scheduling.schedule import Schedule
from repro.service import engine as engine_mod
from repro.service import spec as spec_mod
from repro.service.cache import LRUCache
from repro.service.engine import SchedulingService
from repro.service.spec import ScheduleRequest
from repro.simulation import executor
from repro.simulation.bandwidth import FlowPool
from repro.workflow.generators import generate

from perfbench.spans import Span, Tracer, self_times
from perfbench.stats import latency_summary

__all__ = ["UnitResult", "Workload", "TraceView", "WORKLOAD_CLASSES", "within_budget"]

FAMILIES = ("cybershake", "ligo", "montage")
SWEEP_REPS = 25
SWEEP_ALGORITHMS = ("minmin", "heft", "minmin_budg", "heft_budg")
POOL_WORKERS = 2
#: Size of the refine instance: a HEFTBUDG+ point takes about a second.
REFINE_TASKS = 45
REFINE_REPS = 25
#: Generator seed of the fixed refine instance (the protocol's default seed).
REFINE_INSTANCE_SEED = ExperimentConfig().seed
SERVE_TASKS = 30
SERVE_REPS = 3
SERVE_ALGORITHMS = ("heft_budg", "minmin_budg")
SERVE_POSITIONS = (0.25, 0.5, 0.75)
SERVE_POOL = 32
SERVE_CACHE = 256
SERVE_WORKERS = 2
#: Cache hits served after each fresh (cold) request: enough that hits
#: take about two thirds of the loop's time.
SERVE_HITS_PER_COLD = 200
#: Fresh requests per cycle: one of each family and algorithm.
SERVE_COLD_PER_CYCLE = len(FAMILIES) * len(SERVE_ALGORITHMS)

#: Response fields a cache hit may change; everything else must match.
HIT_EXEMPT = ("cached", "elapsed_s", "stages")


def within_budget(cost: float, budget: float) -> bool:
    """``cost <= budget`` up to the simulator's float tolerance."""
    return cost <= budget * (1.0 + 1e-9) + 1e-9


class UnitResult(NamedTuple):
    """What one unit of work produced."""

    points: int
    seconds: float
    failures: List[str]


class Workload:
    """Base class: setup, units, quality metrics, tracing and layers."""

    name = ""
    #: The kind of every unit of one cycle; the first cycle gives quality.
    cycle: List[str] = ["unit"]
    #: Units per pass of the traced run.
    trace_units = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed
        #: Set during a traced pass, so output checks show as ``bench``.
        self.tracer: Optional[Tracer] = None
        #: Per-call latencies, for workloads whose unit is one request.
        self.latencies: List[float] = []
        self._valid: List[bool] = []
        self._makespans: List[float] = []

    def unit_points(self, kind: str) -> int:
        """Points a unit of ``kind`` attempts (all fail if the unit raises)."""
        return 1

    def checking(self) -> Any:
        """Context for output checks: a ``bench.check`` span when traced."""
        return self.tracer.span("bench.check") if self.tracer else nullcontext()

    # -- lifecycle ------------------------------------------------------
    def setup(self) -> None:
        """Build the inputs from the seed and bring the program to ready."""

    def new_pass(self) -> None:
        """Reset per-pass state so every traced pass does the same work."""

    def close(self) -> None:
        """Release what :meth:`setup` acquired."""

    def run_unit(self, k: int) -> UnitResult:
        """Run unit ``k``, of kind ``cycle[k % len(cycle)]``.

        Its outputs are checked outside the timed call.
        """
        raise NotImplementedError

    def final_failures(self) -> List[str]:
        """Checks on work done outside the units (set-up), run at the end."""
        return []

    # -- quality --------------------------------------------------------
    def _keep_quality(self, k: int, valid: Sequence[bool], makespans: Sequence[float]) -> None:
        if k < len(self.cycle):
            self._valid.extend(valid)
            self._makespans.extend(makespans)

    def quality(self) -> Dict[str, float]:
        """Share of reps within budget and their makespans' geometric mean."""
        n = len(self._valid)
        if not n:
            return {"success_rate": 0.0, "makespan_geomean_s": 0.0}
        return {
            "success_rate": sum(self._valid) / n,
            "makespan_geomean_s": math.exp(
                sum(math.log(m) for m in self._makespans) / n),
        }

    # -- tracing --------------------------------------------------------
    def install(self, tracer: Tracer) -> None:
        """Wrap the calls into each layer this workload exercises."""

    def layer_metrics(self, trace: "TraceView") -> Dict[str, float]:
        """Per-layer metrics from one traced pass."""
        return {}

    def untraced_metrics(self) -> Dict[str, float]:
        """Per-layer metrics read off the traced run's untraced pass."""
        return {}


class TraceView:
    """Span aggregates of one traced pass."""

    def __init__(self, tracer: Tracer) -> None:
        self.spans: List[Span] = list(tracer.spans)
        self.counts = dict(tracer.counts)
        self.selfs = self_times(self.spans)
        self.by_id = {s.id: s for s in self.spans}

    def count(self, name: str) -> float:
        """A wrapper counter (0 when it never fired)."""
        return float(self.counts.get(name, 0))

    def named(self, name: str, parent: Optional[str] = None) -> List[Span]:
        """Spans called ``name`` (whose parent is called ``parent``)."""
        out = [s for s in self.spans if s.name == name]
        if parent is not None:
            out = [
                s for s in out
                if s.parent in self.by_id and self.by_id[s.parent].name == parent
            ]
        return out

    def total(self, name: str, parent: Optional[str] = None) -> float:
        """Summed duration of the matching spans."""
        return sum(s.duration for s in self.named(name, parent))

    def mean(self, name: str, parent: Optional[str] = None) -> float:
        """Mean duration of the matching spans (0 when there are none)."""
        spans = self.named(name, parent)
        return sum(s.duration for s in spans) / len(spans) if spans else 0.0

    def self_total(self, name: str) -> float:
        """Summed self time of the spans called ``name``."""
        return sum(self.selfs[s.id] for s in self.spans if s.name == name)

    def layer_self(self, layer: str) -> float:
        """Summed self time of every span in ``layer``."""
        return sum(self.selfs[s.id] for s in self.spans if s.layer == layer)

    def ancestor(self, span: Span, name: str) -> Optional[Span]:
        """The nearest enclosing span called ``name``."""
        parent = self.by_id.get(span.parent)
        while parent is not None and parent.name != name:
            parent = self.by_id.get(parent.parent)
        return parent


def _wrap_simulation(tracer: Tracer) -> None:
    # One wrapper serves every caller that reads the executor module's
    # global (run_replications, evaluate_schedule).
    tracer.wrap_span(executor, "execute_schedule", "simulation.execute")


def _wrap_schedulers(tracer: Tracer) -> None:
    for cls in SCHEDULERS.values():
        if "schedule" in vars(cls):
            tracer.wrap_span(cls, "schedule", f"scheduling.{cls.name}")
    tracer.wrap_count(PlanningState, "evaluate", "scheduling.planning.evaluate_calls")


# ----------------------------------------------------------------------
def check_records(records: list, expected: int) -> List[str]:
    """Sweep output checks: record count and the validity flag."""
    failures = []
    if len(records) != expected:
        failures.append(f"expected {expected} records, got {len(records)}")
    for r in records:
        if r.valid != within_budget(r.total_cost, r.budget):
            failures.append(
                f"{r.family}/{r.algorithm} rep {r.rep}: valid={r.valid} but "
                f"cost {r.total_cost!r} vs budget {r.budget!r}"
            )
    return failures


def _record_key(record: Any) -> tuple:
    """A record's fields minus ``sched_seconds`` (a wall-clock reading)."""
    return tuple(
        getattr(record, f.name) for f in fields(record)
        if f.name != "sched_seconds"
    )


class Sweep(Workload):
    """Paper-scale ``run_sweep`` calls, serial per algorithm, pooled per family.

    Every unit sweeps one 90-task instance of one family (generator
    seeded by ``--seed``) over a two-point per-workflow budget grid
    (``B_min`` and the high budget) with 25 reps. A serial unit runs one
    of the four Figure 1 algorithms (2 points); a pooled unit runs all
    four through ``run_sweep(workers=2)`` (8 points), whose pool start,
    dispatch and close fall inside the timed call. A cycle holds each
    family's four serial units and then its pooled one. A pooled unit
    must return the serial units' records bit for bit (``sched_seconds``
    aside), and so must every repeat of a serial unit.
    """

    name = "sweep"
    cycle = [
        kind
        for family in FAMILIES
        for kind in [f"serial.{family}.{algo}" for algo in SWEEP_ALGORITHMS]
        + [f"pooled.{family}"]
    ]
    #: One family's serial units, then its pooled one.
    trace_units = len(SWEEP_ALGORITHMS) + 1

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self._serial: Dict[str, list] = {}
        self._pools: List[Dict[str, Any]] = []

    def config(self, family: str, algorithms: Sequence[str]) -> ExperimentConfig:
        """The ``run_sweep`` config of one unit."""
        return ExperimentConfig(
            families=(family,), n_instances=1, budgets_per_workflow=2,
            n_reps=SWEEP_REPS, seed=self.seed, algorithms=tuple(algorithms),
        )

    @staticmethod
    def _parse(kind: str) -> Tuple[str, str, Tuple[str, ...]]:
        mode, family, *algo = kind.split(".")
        return mode, family, tuple(algo) or SWEEP_ALGORITHMS

    def unit_points(self, kind: str) -> int:
        _mode, family, algorithms = self._parse(kind)
        cfg = self.config(family, algorithms)
        return cfg.n_instances * len(algorithms) * cfg.budgets_per_workflow

    def run_unit(self, k: int) -> UnitResult:
        kind = self.cycle[k % len(self.cycle)]
        mode, family, algorithms = self._parse(kind)
        pooled = mode == "pooled"
        start = time.perf_counter()
        records = runner.run_sweep(
            self.config(family, algorithms), workers=POOL_WORKERS if pooled else 0
        )
        seconds = time.perf_counter() - start
        with self.checking():
            points = self.unit_points(kind)
            failures = check_records(records, points * SWEEP_REPS)
            keys = [_record_key(r) for r in records]
            if pooled:
                expected = [
                    key for algo in algorithms
                    for key in self._serial.get(f"serial.{family}.{algo}", [])
                ]
            else:
                expected = self._serial.setdefault(kind, keys)
                self._keep_quality(
                    k, [r.valid for r in records], [r.makespan for r in records]
                )
            if keys != expected:
                failures.append(f"{kind}: records differ from the first serial runs")
        return UnitResult(points, seconds, failures)

    def new_pass(self) -> None:
        self._pools = []

    def install(self, tracer: Tracer) -> None:
        # Forked pool workers inherit these wrappers; their spans stay in
        # the workers, so per-point figures below come from serial slices.
        tracer.wrap_span(runner, "run_sweep", "experiments.run_sweep")
        tracer.wrap_span(runner, "run_point", "experiments.run_point")
        tracer.wrap_span(runner, "generate", "workflow.generate")
        tracer.wrap_span(runner, "budget_grid", "experiments.budget_grid")
        tracer.wrap_span(runner, "sample_weights", "simulation.sample_weights")
        tracer.wrap_span(runner, "run_replications", "simulation.replications")
        tracer.wrap_span(WorkerPool, "__init__", "parallel.pool_start")
        tracer.wrap_span(WorkerPool, "_get_executor", "parallel.get_executor")
        tracer.wrap_span(WorkerPool, "map", "parallel.map")
        tracer.wrap_span(
            WorkerPool, "close", "parallel.close", before=self._snapshot_pool
        )
        _wrap_simulation(tracer)
        _wrap_schedulers(tracer)

    def _snapshot_pool(self, pool: WorkerPool) -> None:
        self._pools.append(
            {"stats": pool.worker_stats(), "respawns": pool.n_respawns}
        )

    def layer_metrics(self, trace: TraceView) -> Dict[str, float]:
        # Scheduling and simulation of the pooled unit run in the workers
        # and show in the parent as parallel.map, so shares of scheduling
        # are taken over the serial unit's wall time alone.
        pooled = {
            trace.ancestor(s, "experiments.run_sweep").id
            for s in trace.named("parallel.map")
        }
        serial_s = sum(
            s.duration for s in trace.named("experiments.run_sweep")
            if s.id not in pooled
        )
        map_s = trace.total("parallel.map")
        busy = sum(s["busy_s"] for p in self._pools for s in p["stats"].values())
        out = {
            f"scheduling.{algo}.schedule_ms": 1e3 * trace.mean(
                f"scheduling.{algo}", parent="experiments.run_point")
            for algo in SWEEP_ALGORITHMS
        }
        out.update({
            "scheduling.planning.evaluate_calls": trace.count(
                "scheduling.planning.evaluate_calls"),
            "scheduling.share": trace.layer_self("scheduling") / serial_s,
            "simulation.replications_s": trace.total("simulation.replications"),
            "simulation.execute_calls": float(len(trace.named("simulation.execute"))),
            "simulation.execute_ms": 1e3 * trace.mean("simulation.execute"),
            "workflow.generate_s": trace.total("workflow.generate"),
            "experiments.budget_grid_s": trace.total("experiments.budget_grid"),
            "simulation.sample_weights_s": trace.total("simulation.sample_weights"),
            "experiments.residual_s": trace.layer_self("experiments"),
            # Pool object and executor construction; the worker processes
            # fork on the first dispatch, which falls inside map_s.
            "parallel.pool_start_s": trace.total("parallel.pool_start")
            + trace.total("parallel.get_executor"),
            # map_s holds the workers' compute; dispatch_s is what is left
            # of it once the busy time, shared by the workers, is taken out.
            "parallel.map_s": map_s,
            "parallel.dispatch_s": map_s - busy / POOL_WORKERS,
            "parallel.close_s": trace.total("parallel.close"),
            "parallel.tasks": float(sum(
                s["tasks"] for p in self._pools for s in p["stats"].values()
            )),
            "parallel.retries": float(sum(p["respawns"] for p in self._pools)),
            "parallel.busy_frac": busy / (POOL_WORKERS * map_s) if map_s else 0.0,
        })
        return out


# ----------------------------------------------------------------------
class Refine(Workload):
    """HEFTBUDG+ points on one fixed 45-task MONTAGE at the medium budget.

    The instance is fixed (generator seed :data:`REFINE_INSTANCE_SEED`)
    so the cost of a point, which swings by a third between random
    instances, is comparable run to run; ``--seed`` drives the 25 Monte
    Carlo reps that follow each schedule. Every unit repeats the same
    point and must reproduce the first unit's schedule and reps.
    """

    name = "refine"
    trace_units = 2

    def setup(self) -> None:
        self.platform = PAPER_PLATFORM
        self.wf = generate(
            "montage", REFINE_TASKS, rng=REFINE_INSTANCE_SEED, sigma_ratio=0.5,
            name=f"montage-{REFINE_TASKS}-refine",
        ).freeze()
        self.budget = medium_budget(self.wf, self.platform)
        start = HeftBudgScheduler().schedule(self.wf, self.platform, self.budget)
        self.start_makespan = executor.evaluate_schedule(
            self.wf, self.platform, start.schedule
        ).makespan
        self._first: Optional[tuple] = None

    def run_unit(self, k: int) -> UnitResult:
        seeds = np.random.SeedSequence(self.seed).spawn(REFINE_REPS)
        t0 = time.perf_counter()
        result = make_scheduler("heft_budg_plus").schedule(
            self.wf, self.platform, self.budget
        )
        rows = executor.run_replications({
            "wf": self.wf, "platform": self.platform,
            "schedule": result.schedule, "budget": self.budget,
            "seeds": seeds,
        })
        seconds = time.perf_counter() - t0
        with self.checking():
            failures = self._check(result, rows)
            outcome = (result.planned_makespan, [tuple(r) for r in rows])
            if self._first is None:
                self._first = outcome
            elif outcome != self._first:
                failures.append(f"unit {k}: schedule or reps differ from unit 0")
            self._keep_quality(k, [r[3] for r in rows], [r[0] for r in rows])
        return UnitResult(1, seconds, failures)

    def _check(self, result: Any, rows: List[tuple]) -> List[str]:
        failures = []
        try:
            result.schedule.validate(self.wf)
        except ScheduleValidationError as exc:
            return [f"refined schedule invalid: {exc}"]
        final = executor.evaluate_schedule(self.wf, self.platform, result.schedule)
        if not within_budget(final.total_cost, self.budget):
            failures.append(
                f"refined cost {final.total_cost!r} over budget {self.budget!r}"
            )
        # Algorithm 5 keeps only improving moves.
        if final.makespan > self.start_makespan + 1e-9:
            failures.append(
                f"refined makespan {final.makespan!r} above the HEFTBUDG "
                f"start {self.start_makespan!r}"
            )
        if final.makespan != result.planned_makespan:
            failures.append("planned makespan differs from its evaluation")
        for _makespan, cost, _n_vms, valid in rows:
            if valid != within_budget(cost, self.budget):
                failures.append(f"rep valid={valid} but cost {cost!r}")
        return failures

    def install(self, tracer: Tracer) -> None:
        tracer.wrap_span(refine_mod, "refine_schedule", "scheduling.refine")
        tracer.wrap_span(refine_mod, "evaluate_schedule", "simulation.evaluate")
        tracer.wrap_span(Schedule, "reassigned", "scheduling.reassign")
        tracer.wrap_span(executor, "run_replications", "simulation.replications")
        tracer.wrap_count(FlowPool, "advance", "simulation.flowpool_advance_calls")
        _wrap_simulation(tracer)
        _wrap_schedulers(tracer)

    def layer_metrics(self, trace: TraceView) -> Dict[str, float]:
        return {
            "scheduling.heft_budg_s": trace.total(
                "scheduling.heft_budg", parent="scheduling.heft_budg_plus"),
            "scheduling.refine_s": trace.total("scheduling.refine"),
            "simulation.evaluate_calls": float(len(trace.named("simulation.evaluate"))),
            "simulation.evaluate_ms": 1e3 * trace.mean("simulation.evaluate"),
            "scheduling.reassign_calls": float(len(trace.named("scheduling.reassign"))),
            "scheduling.reassign_s": trace.total("scheduling.reassign"),
            "simulation.flowpool_advance_calls": trace.count(
                "simulation.flowpool_advance_calls"),
            # The refinement loop's own code: HEFTBUDG+'s schedule() and
            # refine_schedule minus the calls they make.
            "refine.residual_s": trace.self_total("scheduling.heft_budg_plus")
            + trace.self_total("scheduling.refine"),
        }


# ----------------------------------------------------------------------
def _spec(seed: int, i: int) -> Dict[str, Any]:
    """The ``i``-th distinct request of a seed's stream, as a client sends it.

    Family, algorithm and budget position cycle; the workflow generator
    seed is unique per ``(seed, i)``, so no two requests share a schedule.
    """
    return {
        "workflow": {
            "family": FAMILIES[i % 3], "n_tasks": SERVE_TASKS,
            "rng": seed * 1_000_003 + i, "sigma_ratio": 0.5,
        },
        "algorithm": SERVE_ALGORITHMS[(i // 3) % 2],
        "budget": {"position": SERVE_POSITIONS[(i // 6) % 3]},
        "evaluation": {"n_reps": SERVE_REPS, "seed": i},
    }


def check_response(response: Any) -> List[str]:
    """Internal consistency of one computed response."""
    failures = []
    evaluation = response.evaluation or {}
    reps = evaluation.get("reps", [])
    if len(reps) != SERVE_REPS:
        failures.append(f"expected {SERVE_REPS} reps, got {len(reps)}")
    for rep in reps:
        if rep["within_budget"] != within_budget(rep["cost"], response.budget):
            failures.append(f"rep {rep['seed']}: within_budget disagrees with cost")
    if reps and evaluation["budget_success_rate"] != (
        sum(r["within_budget"] for r in reps) / len(reps)
    ):
        failures.append("budget_success_rate disagrees with reps")
    return failures


class Serve(Workload):
    """Closed loop, one client, ``SchedulingService.schedule`` in-process.

    Setup computes a pool of 32 specs (fewer than the 256-entry cache)
    and keeps each cold response; their reps give the quality metrics.
    Each fresh request (a spec never seen before, so the cache is
    bypassed) is followed by 200 requests that repeat pool specs chosen
    by a seeded generator; a cycle holds one fresh request of each
    family and algorithm. Unit kinds are ``hit`` and
    ``cold.<family>.<algorithm>``. Every hit must equal its cold
    original except for ``cached``, ``elapsed_s`` and the stage timings;
    every fresh response must be internally consistent.
    """

    name = "serve"
    cycle = [
        kind
        for spec in (_spec(0, SERVE_POOL + j) for j in range(SERVE_COLD_PER_CYCLE))
        for kind in [f"cold.{spec['workflow']['family']}.{spec['algorithm']}"]
        + ["hit"] * SERVE_HITS_PER_COLD
    ]
    trace_units = 5 * len(cycle)

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.service: Optional[SchedulingService] = None
        self.responses: List[Any] = []
        self._fingerprints = {True: 0, False: 0}
        self._warm_failures: List[str] = []

    def setup(self) -> None:
        self.pool = [_spec(self.seed, i) for i in range(SERVE_POOL)]
        self.new_pass()
        for original in self.originals:
            reps = original.evaluation["reps"]
            self._valid.extend(r["within_budget"] for r in reps)
            self._makespans.extend(r["makespan"] for r in reps)

    def new_pass(self) -> None:
        # A fresh service per pass: its response cache and the batcher's
        # family caches would otherwise serve a repeated pass from memory.
        self.close()
        self.service = SchedulingService(
            max_workers=SERVE_WORKERS, cache_size=SERVE_CACHE
        )
        self.originals = [self.service.schedule(s) for s in self.pool]
        for original in self.originals:
            # Hits are compared with these, so they must be sound too.
            self._warm_failures.extend(self._check(original, True, -1))
        self.latencies = []
        self.responses = []
        self._order = random.Random(self.seed)
        self._fingerprints = {True: 0, False: 0}

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None

    def run_unit(self, k: int) -> UnitResult:
        assert self.service is not None
        fresh = k % (SERVE_HITS_PER_COLD + 1) == 0
        i = -1 if fresh else self._order.randrange(SERVE_POOL)
        # Fresh specs come after the pool's indices in the seed's stream.
        spec = (
            _spec(self.seed, SERVE_POOL + k // (SERVE_HITS_PER_COLD + 1))
            if fresh else self.pool[i]
        )
        fingerprints = self.tracer.counts["service.fingerprint_calls"] if self.tracer else 0
        t0 = time.perf_counter()
        response = self.service.schedule(spec)
        seconds = time.perf_counter() - t0
        with self.checking():
            if self.tracer:
                self._fingerprints[response.cached] += (
                    self.tracer.counts["service.fingerprint_calls"] - fingerprints
                )
            self.latencies.append(seconds)
            self.responses.append(response)
            failures = self._check(response, fresh, i)
        return UnitResult(1, seconds, failures)

    def final_failures(self) -> List[str]:
        return list(self._warm_failures)

    def _check(self, response: Any, fresh: bool, i: int) -> List[str]:
        if fresh:
            failures = check_response(response)
            if response.cached:
                failures.append("fresh spec served from cache")
            return failures
        original = self.originals[i]
        exempt = {f: getattr(original, f) for f in HIT_EXEMPT}
        if not response.cached:
            return [f"pool spec {i} missed the cache"]
        if replace(response, **exempt) != original:
            return [f"pool spec {i}: cached response differs from original"]
        return []

    def install(self, tracer: Tracer) -> None:
        tracer.wrap_span(SchedulingService, "schedule", "service.request")
        tracer.wrap_span(ScheduleRequest, "from_dict", "service.coerce")
        tracer.wrap_count(ScheduleRequest, "fingerprint", "service.fingerprint_calls")
        tracer.wrap_span(AdmissionController, "admit", "admission.admit")
        tracer.wrap_span(AdmissionController, "reconcile", "admission.reconcile")
        tracer.wrap_span(LRUCache, "get_or_compute", "service.cache")
        tracer.wrap_span(SchedulingService, "_compute", "service.compute")
        tracer.wrap_span(SLOMonitor, "observe_request", "obs.slo_observe")
        tracer.wrap_span(spec_mod, "generate", "workflow.generate")
        tracer.wrap_span(budgets_mod, "minimal_budget", "experiments.minimal_budget")
        tracer.wrap_span(budgets_mod, "high_budget", "experiments.high_budget")
        tracer.wrap_span(engine_mod, "execute_schedule", "simulation.execute")
        tracer.wrap_span(engine_mod, "sample_weights", "simulation.sample_weights")
        _wrap_simulation(tracer)
        _wrap_schedulers(tracer)

    def layer_metrics(self, trace: TraceView) -> Dict[str, float]:
        requests = trace.named("service.request")
        # Requests and responses are both in call order.
        cached = {s.id: r.cached for s, r in zip(requests, self.responses)}
        n_hits = sum(cached.values())
        n_cold = len(requests) - n_hits
        # Self time of each cached-path span, summed over cache hits.
        hit_self: Dict[str, float] = {}
        for span in trace.spans:
            request = span if span.name == "service.request" else trace.ancestor(
                span, "service.request")
            if request is not None and cached.get(request.id):
                hit_self[span.name] = hit_self.get(span.name, 0.0) + trace.selfs[span.id]
        per_hit = 1e6 / n_hits if n_hits else 0.0
        return {
            "service.requests": float(len(requests)),
            "service.cache_hit_ratio": n_hits / len(requests) if requests else 0.0,
            "service.fingerprint_calls.cached": (
                self._fingerprints[True] / n_hits if n_hits else 0.0),
            "service.fingerprint_calls.cold": (
                self._fingerprints[False] / n_cold if n_cold else 0.0),
            **{
                f"{name}_us": per_hit * hit_self.get(name, 0.0)
                for name in ("service.coerce", "admission.admit",
                             "admission.reconcile", "service.cache",
                             "obs.slo_observe")
            },
            # A hit's own time outside the calls above.
            "service.residual_us": per_hit * hit_self.get("service.request", 0.0),
            "service.compute_ms": 1e3 * trace.mean("service.compute"),
        }

    def untraced_metrics(self) -> Dict[str, float]:
        """Latency percentiles and the program's own stage timings, per path."""
        out: Dict[str, float] = {}
        for path, hit in (("cached", True), ("cold", False)):
            picked = [
                (seconds, r) for seconds, r in zip(self.latencies, self.responses)
                if r.cached == hit
            ]
            summary = latency_summary([seconds for seconds, _ in picked])
            out.update({
                f"service.{path}_{stat}": float(summary[key])
                for stat, key in (("p50_ms", "p50"), ("tail_ms", "tail"),
                                  ("tail_q", "tail_q"), ("n", "n"))
            })
            # Mean of each stage the responses report, in microseconds.
            n = max(len(picked), 1)
            for _, response in picked:
                stages = response.stages or {}
                for stage, seconds in stages.get("stages", {}).items():
                    key = f"service.stage.{path}.{stage}_us"
                    out[key] = out.get(key, 0.0) + 1e6 * seconds / n
                key = f"service.stage.{path}.wall_us"
                out[key] = out.get(key, 0.0) + 1e6 * stages.get("wall_s", 0.0) / n
        return out


WORKLOAD_CLASSES = {cls.name: cls for cls in (Sweep, Refine, Serve)}
