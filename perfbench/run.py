"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: it runs
units of the workload for ``--seconds`` seconds (at least one cycle,
which gives the quality metrics), checks every output, and times set-up
in this process plus four fresh interpreters (the median is reported).
Throughput is taken per unit kind, from the median of the unit times
normalised by a reference loop timed between the units
(:mod:`perfbench.stats`).

``--trace 1`` is the traced run: a fixed amount of work runs four times
at the same seed, untraced and under the span tracer of
:mod:`perfbench.spans` in turn. It reports the per-layer split of the
first traced pass, with the unattributed residual, the tracing overhead
(mean traced minus mean untraced wall time) and a self-check that every
exact count repeated across the two traced passes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A fuller record,
with metadata, sample counts and, for a traced run, every span, is
written to ``perfbench/out/``. ``--write-manifest`` regenerates
``BENCHMARK.json`` from :mod:`perfbench.metrics`.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402  (set-up time is measured from T0)
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional, Tuple  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
LOAD_AT_START = os.getloadavg()
sys.path.insert(0, str(ROOT))

from perfbench.metrics import END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS, manifest  # noqa: E402
from perfbench.spans import Tracer, layer_split  # noqa: E402
from perfbench.stats import (  # noqa: E402
    REFERENCE_NOMINAL_S, cycle_rate, reference_seconds,
)

#: Fresh interpreters that repeat set-up, besides this process.
SETUP_PROBES = 4
#: Seconds between timings of the reference loop during a measured run.
REFERENCE_EVERY_S = 0.2
#: Failure messages kept in the run record.
MAX_MESSAGES = 50


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    """Command line: the benchmark interface plus two internal modes."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="sweep")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", action="store_true",
        help="set up the workload, print the set-up seconds and exit",
    )
    parser.add_argument(
        "--write-manifest", action="store_true",
        help="write BENCHMARK.json from perfbench/metrics.py and exit",
    )
    return parser.parse_args(argv)


class Tally:
    """Attempted and failed operations plus the first failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def add(self, attempted: int, failures: List[str]) -> None:
        """Count ``attempted`` operations, ``len(failures)`` (capped) failed."""
        self.attempted += attempted
        self.failed += min(len(failures), max(attempted, 1))
        room = MAX_MESSAGES - len(self.messages)
        self.messages.extend(failures[:room])


def run_unit(workload: Any, k: int, tally: Tally) -> Tuple[int, float]:
    """One unit with its checks; a raising unit fails all its points."""
    try:
        result = workload.run_unit(k)
    except Exception:  # the program failed: record it and keep measuring
        kind = workload.cycle[k % len(workload.cycle)]
        tally.add(workload.unit_points(kind), [traceback.format_exc(limit=3)])
        return 0, 0.0
    tally.add(result.points, result.failures)
    return (0, 0.0) if result.failures else (result.points, result.seconds)


def measured_run(workload: Any, seconds: float, tally: Tally) -> Dict[str, Any]:
    """Units in cycle order while ``seconds`` allow; per-kind timings.

    The first cycle always runs. After it, a unit starts only if a unit
    of its kind, at its mean time so far, still ends within ``seconds``.
    The reference loop is timed before a unit whenever
    :data:`REFERENCE_EVERY_S` has passed since it last ran, and once at
    the end; a unit's time is normalised by the mean of the reference
    timings just before and just after it. ``points_per_s`` takes each
    kind at the median of its normalised times; the same rate from the
    raw times is kept for the record. Units that failed a check are left
    out of the timings.
    """
    cycle = workload.cycle
    units: List[Tuple[str, float, int]] = []
    points: Dict[str, int] = {}
    spent = {kind: 0.0 for kind in cycle}
    count = {kind: 0 for kind in cycle}
    refs = [reference_seconds()]
    last_ref = time.perf_counter()
    k = 0
    start = time.perf_counter()
    while True:
        kind = cycle[k % len(cycle)]
        now = time.perf_counter()
        if k >= len(cycle) and now - start + spent[kind] / max(count[kind], 1) > seconds:
            break
        if now - last_ref >= REFERENCE_EVERY_S:
            refs.append(reference_seconds())
            last_ref = time.perf_counter()
        done_points, unit_s = run_unit(workload, k, tally)
        if done_points:
            units.append((kind, unit_s, len(refs) - 1))
            points[kind] = done_points
            spent[kind] += unit_s
            count[kind] += 1
        k += 1
    refs.append(reference_seconds())
    loop_s = time.perf_counter() - start
    tally.add(0, workload.final_failures())

    raw: Dict[str, List[float]] = {kind: [] for kind in cycle}
    norm: Dict[str, List[float]] = {kind: [] for kind in cycle}
    for kind, unit_s, i in units:
        raw[kind].append(unit_s)
        norm[kind].append(unit_s * REFERENCE_NOMINAL_S / ((refs[i] + refs[i + 1]) / 2))
    complete = all(raw[kind] for kind in cycle)

    def rate(times: Dict[str, List[float]]) -> float:
        return cycle_rate(cycle, times, points) if complete else 0.0

    return {
        "units": k,
        "loop_s": loop_s,
        "points_per_s": rate(norm),
        "raw_points_per_s": rate(raw),
        "reference_s": {"n": len(refs), "median": statistics.median(refs),
                        "min": min(refs), "max": max(refs)},
        "kinds": {
            kind: {"n": len(v), "median_s": statistics.median(v) if v else None,
                   "norm_median_s": statistics.median(norm[kind]) if v else None}
            for kind, v in raw.items()
        },
    }


def fixed_pass(workload: Any, tally: Tally, tracer: Any = None) -> float:
    """``trace_units`` units; returns the pass's wall seconds."""
    workload.new_pass()
    start = time.perf_counter()
    if tracer is None:
        for k in range(workload.trace_units):
            run_unit(workload, k, tally)
        return time.perf_counter() - start
    workload.tracer = tracer
    workload.install(tracer)
    try:
        with tracer.span("run"):
            for k in range(workload.trace_units):
                run_unit(workload, k, tally)
    finally:
        tracer.restore()
        workload.tracer = None
    return time.perf_counter() - start


def count_drift(first: Any, second: Any) -> List[str]:
    """Exact counts (wrapper counters, spans per name) that differ."""
    def counts(view: Any) -> Dict[str, int]:
        out = dict(view.counts)
        for span in view.spans:
            out[f"spans:{span.name}"] = out.get(f"spans:{span.name}", 0) + 1
        return out

    a, b = counts(first), counts(second)
    return [
        f"count {key} drifted: {a.get(key)} then {b.get(key)}"
        for key in sorted(set(a) | set(b)) if a.get(key) != b.get(key)
    ]


def traced_run(workload: Any, seed: int, tally: Tally) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """Untraced and traced passes, interleaved twice; per-layer metrics.

    Interleaving lets slow drifts of machine speed hit both sides of the
    overhead figure alike. Layer metrics come from the first traced pass;
    the second must repeat its exact counts.
    """
    from perfbench.workloads import TraceView

    metrics = {m.name: 0.0 for m in PER_LAYER}
    untraced: List[float] = []
    traced: List[float] = []
    views = []
    tracers = []
    for i in (1, 2):
        untraced.append(fixed_pass(workload, tally))
        if i == 1:
            metrics.update(workload.untraced_metrics())
        tracer = Tracer(f"{workload.name}-seed{seed}-pass{i}")
        traced.append(fixed_pass(workload, tally, tracer))
        view = TraceView(tracer)
        if i == 1:
            metrics.update(workload.layer_metrics(view))
        views.append(view)
        tracers.append(tracer)
    tally.add(0, workload.final_failures())

    layers, residual, wall = layer_split(views[0].spans)
    accounted = sum(layers.values()) + residual
    failures = []
    if residual < -1e-9:
        failures.append(f"negative residual {residual!r}")
    if abs(accounted - wall) > 1e-6 * max(wall, 1.0):
        failures.append(f"layers + residual = {accounted!r}, wall {wall!r}")
    drift = count_drift(views[0], views[1])
    tally.add(0, failures + drift)
    for layer, seconds in layers.items():
        key = f"self.{layer}_s"
        if key not in metrics:
            tally.add(0, [f"span layer {layer!r} has no self-time metric"])
        metrics[key] = seconds
    untraced_s = statistics.mean(untraced)
    overhead_s = statistics.mean(traced) - untraced_s
    metrics.update({
        "trace.wall_s": wall,
        "trace.untraced_wall_s": untraced_s,
        "trace.overhead_s": overhead_s,
        "trace.overhead_share": overhead_s / untraced_s,
        "trace.residual_s": residual,
        "trace.residual_share": residual / wall,
        "trace.spans": float(len(views[0].spans)),
        "trace.count_drift": float(len(drift)),
    })
    trace = {
        "pass1": tracers[0].to_dict(),
        "pass2_counts": dict(tracers[1].counts),
        "layers_s": layers,
        "residual_s": residual,
        "wall_s": wall,
        "untraced_walls_s": untraced,
        "traced_walls_s": traced,
    }
    return metrics, trace


def setup_probe(workload: str, seed: int) -> float:
    """Set-up seconds of the workload in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        cwd=str(ROOT), capture_output=True, text=True, timeout=120, check=True,
    )
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def metadata(args: argparse.Namespace) -> Dict[str, Any]:
    """Machine and run facts recorded next to the metrics."""
    import numpy

    return {
        "workload": args.workload,
        "why": WORKLOADS[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_at_start": list(LOAD_AT_START),
    }


def write_manifest() -> int:
    """Regenerate ``BENCHMARK.json`` from the metric tables."""
    text = json.dumps(manifest(), indent=2) + "\n"
    (ROOT / "BENCHMARK.json").write_text(text)
    print(f"wrote {ROOT / 'BENCHMARK.json'}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = parse_args(argv)
    if args.write_manifest:
        return write_manifest()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from perfbench.workloads import WORKLOAD_CLASSES

    if args.workload not in WORKLOAD_CLASSES:
        print(f"perfbench: unknown workload {args.workload!r}; one of "
              f"{sorted(WORKLOAD_CLASSES)}", file=sys.stderr)
        return 2
    workload = WORKLOAD_CLASSES[args.workload](args.seed)
    workload.setup()
    setups = [time.perf_counter() - T0]
    if args.setup_probe:
        workload.close()
        print(json.dumps({"setup_s": setups[0]}))
        return 0

    tally = Tally()
    record: Dict[str, Any] = {"meta": metadata(args)}
    if not args.trace:
        # Half the probes before the measured run and half after, so that
        # they meet different phases of the machine's speed.
        setups += [
            setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES // 2)
        ]
    try:
        if args.trace:
            values, record["trace"] = traced_run(workload, args.seed, tally)
        else:
            run = measured_run(workload, args.seconds, tally)
            record["run"] = run
            # Per-path latency percentiles with their sample counts.
            record["per_path"] = workload.untraced_metrics()
    finally:
        workload.close()

    if args.trace:
        units = {m.name: m.unit for m in PER_LAYER}
    else:
        setups += [
            setup_probe(args.workload, args.seed)
            for _ in range(SETUP_PROBES - SETUP_PROBES // 2)
        ]
        record["setup_samples_s"] = setups
        values = {
            "setup_s": statistics.median(setups),
            "points_per_s": run["points_per_s"],
            **workload.quality(),
        }
        units = {m.name: m.unit for m in END_TO_END}
        values = {name: values[name] for name in units}

    metrics = {
        name: {"value": float(values[name]), "unit": units[name]} for name in units
    }
    record.update(
        metrics=metrics, attempted=tally.attempted, failed=tally.failed,
        error_rate=tally.failed / max(tally.attempted, 1),
        failures=tally.messages,
    )
    OUT.mkdir(parents=True, exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1))

    for message in tally.messages[:10]:
        print(f"FAILED: {message}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"attempted {tally.attempted}, failed {tally.failed}, "
          f"error_rate {record['error_rate']:.6g}; record {out_file.relative_to(ROOT)}")
    if "run" in record:
        run = record["run"]
        print(f"  units {run['units']}, loop {run['loop_s']:.3f} s")
        print(f"  (raw_points_per_s {run['raw_points_per_s']:.6g}; reference "
              f"loop {run['reference_s']['median'] * 1e3:.4g} ms median)")
        for kind, stat in run["kinds"].items():
            if stat["n"]:
                print(f"  ({kind}: n {stat['n']}, median {stat['median_s']:.6g} s, "
                      f"normalised {stat['norm_median_s']:.6g} s)")
    for name, value in record.get("per_path", {}).items():
        print(f"  ({name} = {value:.6g})")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
