"""Steadiness check: run the benchmark over several seeds, report spreads.

Usage, from the repository root::

    python3 perfbench/steady.py --workloads sweep,refine --seeds 1-5
    python3 perfbench/steady.py --seeds 101-110 --trace-seed 101 \\
        --record perfbench/record.json

Each run is a separate ``perfbench/run.py`` process, one at a time. For
every workload and end-to-end metric it prints the median, the quartiles
and the spread (inter-quartile distance over the median) next to the
metric's bound; a spread at or above a third of the bound is flagged
(for ``setup_s`` too, though its spread is not held to the bound).
``--trace-seed`` adds one traced run per workload. ``--record`` merges
the summaries, per-run values and traced-run metrics into a JSON file
under a key naming the seed set, next to the machine facts of the last
run, and compares every median with the same metric's median in each
seed set already recorded there: a median worse by more than the
metric's bound is flagged, ``setup_s`` included.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.metrics import END_TO_END, RUN_SECONDS, WORKLOADS  # noqa: E402
from perfbench.stats import spread  # noqa: E402

MACHINE_KEYS = ("nproc", "cpus_usable", "machine", "python", "numpy")


def parse_seeds(text: str) -> List[int]:
    """``"1-10"`` or ``"1,4,9"`` to a list of seeds."""
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> Dict[str, Any]:
    """One benchmark run; returns its run record (with the result line)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=str(ROOT), capture_output=True, text=True, timeout=900, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    path = ROOT / "perfbench" / "out" / f"{workload}-seed{seed}-trace{trace}.json"
    record = json.loads(path.read_text())
    record["result"] = result
    return record


def summarize(runs: List[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    """Median, quartiles and spread of every end-to-end metric."""
    out = {}
    for metric in END_TO_END:
        values = [r["result"]["metrics"][metric.name]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[metric.name] = {
            "median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": spread(values), "bound": metric.bound, "n": len(values),
        }
    return out


def worse_by(metric: Any, before: float, after: float) -> float:
    """How much worse ``after`` is than ``before``, as a share of ``before``."""
    change = (after - before) / before
    return change if metric.better == "lower" else -change


def compare(name: str, earlier: Dict[str, Any], results: Dict[str, Any]) -> bool:
    """Print each median against a recorded seed set's; False if one is worse
    by more than its metric's bound."""
    ok = True
    for workload, result in results.items():
        if workload not in earlier:
            continue
        for metric in END_TO_END:
            before = earlier[workload]["summary"][metric.name]["median"]
            after = result["summary"][metric.name]["median"]
            worse = worse_by(metric, before, after)
            flag = worse > metric.bound
            ok = ok and not flag
            print(f"{workload:13s} {metric.name:18s} median {after:.6g} vs "
                  f"{before:.6g} in {name}: worse by {worse:+.4f} "
                  f"(bound {metric.bound}){'  <-- over bound' if flag else ''}",
                  flush=True)
    return ok


def main(argv: Any = None) -> int:
    """Run the seeds, print the table, optionally merge into a record."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--trace-seed", type=int, help="also run one traced run")
    parser.add_argument("--record", help="merge the results into this JSON file")
    args = parser.parse_args(argv)

    seeds = parse_seeds(args.seeds)
    results: Dict[str, Any] = {}
    traced: Dict[str, Any] = {}
    steady = True
    last: Dict[str, Any] = {}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, args.seconds) for seed in seeds]
        last = runs[-1]["meta"]
        incorrect = [r["meta"]["seed"] for r in runs if not r["result"]["correct"]]
        if incorrect:
            steady = False
            print(f"{workload}: INCORRECT at seeds {incorrect}", flush=True)
        summary = summarize(runs)
        results[workload] = {
            "summary": summary,
            "runs": [
                {
                    "seed": r["meta"]["seed"],
                    "loadavg_at_start": r["meta"]["loadavg_at_start"],
                    "attempted": r["attempted"], "failed": r["failed"],
                    "run": r["run"], "per_path": r.get("per_path"),
                    "setup_samples_s": r["setup_samples_s"],
                    "values": {k: v["value"] for k, v in r["metrics"].items()},
                }
                for r in runs
            ],
        }
        for name, s in summary.items():
            wide = s["spread"] >= s["bound"] / 3
            if name != "setup_s":
                steady = steady and s["spread"] < s["bound"]
            print(f"{workload:13s} {name:18s} median {s['median']:.6g} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.4f} "
                  f"(bound {s['bound']}){'  <-- wide' if wide else ''}", flush=True)
        if args.trace_seed is not None:
            record = run_once(workload, args.trace_seed, args.seconds, trace=1)
            traced[workload] = {
                "seed": args.trace_seed,
                "correct": record["result"]["correct"],
                "metrics": {k: v["value"] for k, v in record["metrics"].items()},
                "layers_s": record["trace"]["layers_s"],
                "residual_s": record["trace"]["residual_s"],
                "wall_s": record["trace"]["wall_s"],
            }
            print(f"{workload:13s} traced: correct {traced[workload]['correct']}, "
                  f"wall {traced[workload]['wall_s']:.3f} s, residual "
                  f"{traced[workload]['residual_s']:.6f} s", flush=True)

    if args.record:
        path = Path(args.record)
        doc = json.loads(path.read_text()) if path.exists() else {}
        for name, earlier in doc.get("seed_sets", {}).items():
            steady = compare(name, earlier["workloads"], results) and steady
        doc["machine"] = {k: last.get(k) for k in MACHINE_KEYS}
        doc.setdefault("seed_sets", {})[f"seeds {args.seeds}"] = {
            "seconds": args.seconds, "workloads": results,
        }
        if traced:
            doc.setdefault("traced", {}).update(traced)
        path.write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
