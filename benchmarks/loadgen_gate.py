"""CI load-observatory gate: seeded replay against a live gateway.

Contract checks (any violation exits non-zero):

1. **Determinism** — the same :class:`~repro.loadgen.ArrivalConfig`
   seed yields a bit-identical request sequence (arrival offsets + spec
   fingerprints + tenant/priority draws) regardless of driver
   concurrency: two replays at different worker counts must report the
   same ``sequence_fingerprint``.
2. **Open-loop fidelity** — a paced mixed-tenant replay against a live
   HTTP gateway achieves a completed-request rate within tolerance of
   the offered rate, with zero transport errors and zero refusals under
   uncapped tenants.
3. **Stage-sum completeness** — every archived ``load_run`` row reports
   ``n_stage_violations == 0``: each response's stage decomposition sums
   to its wall time within tolerance.
4. **Tail latency** — the end-to-end p99 of the live replay stays under
   the threshold.
5. **Observatory round-trip** — a large in-process replay archives a
   ledger ``load_run`` row whose per-stage percentiles the HTML report
   renders, and the dashboard draws frames from the same service.

The JSON report doubles as the ``BENCH_PR8.json`` payload: a
``load_gate`` section with the measured numbers plus a
``load_baseline`` section that ``repro-exp ledger regress`` gates
future runs against.
"""

import argparse
import io
import json
import os
import sys
import tempfile

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
)

from repro.loadgen import ArrivalConfig, Dashboard, LoadDriver  # noqa: E402
from repro.loadgen import generate_sequence, sequence_fingerprint  # noqa: E402
from repro.loadgen.report import render_load_report  # noqa: E402
from repro.obs.ledger import LOAD_GATE, RunLedger  # noqa: E402
from repro.service.engine import SchedulingService  # noqa: E402
from repro.service.http import start_gateway  # noqa: E402


def gate_config(*, rate, n_requests, seed=1234):
    """The gate's mixed-tenant, mixed-priority MMPP workload."""
    return ArrivalConfig(
        process="mmpp",
        rate=rate,
        n_requests=n_requests,
        seed=seed,
        burstiness=3.0,
        mean_burst_s=1.0,
        mean_calm_s=4.0,
        families=("montage", "ligo"),
        n_tasks=(15,),
        algorithms=("heft_budg",),
        budgets=(2.0,),
        spec_seeds=2,
        n_reps=1,
        tenants={"gold": 3.0, "silver": 2.0, "free": 1.0},
        priorities={"interactive": 0.3, "batch": 0.5, "best_effort": 0.2},
    )


def check_determinism(config, failures):
    """Same seed → bit-identical plan; replays never touch the sequence."""
    first = generate_sequence(config)
    second = generate_sequence(config)
    fp = sequence_fingerprint(first)
    if fp != sequence_fingerprint(second):
        failures.append("same-seed plans differ — sequence is not pure")
    svc = SchedulingService(cache_size=256)
    try:
        narrow = LoadDriver(svc, concurrency=2, pace=False)
        wide = LoadDriver(svc, concurrency=12, pace=False)
        small = ArrivalConfig.from_dict(
            {**config.to_dict(), "n_requests": 100}
        )
        run_a = narrow.run(small)
        run_b = wide.run(small)
    finally:
        svc.close()
    if run_a.sequence_fp != run_b.sequence_fp:
        failures.append(
            "sequence fingerprint changed with driver concurrency "
            f"(2 workers {run_a.sequence_fp[:12]} vs "
            f"12 workers {run_b.sequence_fp[:12]})"
        )
    return {
        "sequence_fingerprint": fp,
        "concurrency_invariant": run_a.sequence_fp == run_b.sequence_fp,
    }


def run_live_replay(config, ledger_path, *, rate_tolerance, p99_limit_s,
                    concurrency, failures):
    """Paced open-loop replay against a live HTTP gateway."""
    planned = generate_sequence(config)
    # The nominal rate is a long-run average; at CI horizons the MMPP
    # realization can span more or less wall time. Replay fidelity is
    # therefore gated against the *realized* planned rate — achieved
    # only falls short of it when the driver lags or requests fail.
    planned_span = planned[-1].offset_s if planned else 0.0
    realized_offered = (
        len(planned) / planned_span if planned_span > 0 else 0.0
    )
    svc = SchedulingService(max_workers=2, cache_size=512)
    gateway = start_gateway(svc)
    try:
        driver = LoadDriver(gateway.url, concurrency=concurrency, pace=True)
        result = driver.replay(planned, config, label="live-gate")
        with RunLedger(ledger_path) as ledger:
            load_id = ledger.record_load_run(result.to_row())
    finally:
        gateway.shutdown()
        svc.close()

    achieved = result.achieved_rps
    offered = realized_offered
    rate_error = abs(achieved - offered) / offered if offered else 1.0
    if rate_error > rate_tolerance:
        failures.append(
            f"achieved rate {achieved:.1f} req/s deviates "
            f"{rate_error:.1%} from offered {offered:.1f} req/s "
            f"(tolerance {rate_tolerance:.0%})"
        )
    if result.outcomes.get("error", 0):
        failures.append(
            f"{result.outcomes['error']} transport error(s) in the "
            "live replay"
        )
    refused = result.refusals
    if refused:
        failures.append(f"unexpected refusals under uncapped tenants: "
                        f"{refused}")
    pcts = result.percentiles()
    if pcts.get("p99", 0.0) > p99_limit_s:
        failures.append(
            f"live p99 {pcts['p99'] * 1e3:.1f}ms exceeds "
            f"{p99_limit_s * 1e3:.0f}ms"
        )
    if result.n_stage_violations:
        failures.append(
            f"{result.n_stage_violations} response(s) whose stage sums "
            "do not match wall time"
        )
    return {
        "load_id": load_id,
        "n_requests": result.n_requests,
        "nominal_rps": round(config.rate, 3),
        "offered_rps": round(offered, 3),
        "achieved_rps": round(achieved, 3),
        "rate_error_pct": round(rate_error * 100.0, 2),
        "duration_s": round(result.duration_s, 3),
        "outcomes": dict(sorted(result.outcomes.items())),
        "p50_ms": round(pcts.get("p50", 0.0) * 1e3, 3),
        "p95_ms": round(pcts.get("p95", 0.0) * 1e3, 3),
        "p99_ms": round(pcts.get("p99", 0.0) * 1e3, 3),
        "max_send_lag_s": round(result.max_send_lag_s, 4),
        "cost_total": round(result.cost_total, 4),
        "sequence_fingerprint": result.sequence_fp,
    }


def run_big_replay(ledger_path, *, n_requests, failures):
    """Large in-process replay; report + dashboard round-trip."""
    config = ArrivalConfig(
        process="poisson",
        rate=float(max(n_requests, 1)),  # plan spans ~1s; replay unpaced
        n_requests=n_requests,
        seed=77,
        families=("montage", "ligo"),
        n_tasks=(15,),
        algorithms=("heft_budg",),
        budgets=(2.0,),
        spec_seeds=3,
        n_reps=1,
        tenants={"gold": 1.0, "silver": 1.0},
        priorities={"interactive": 0.4, "batch": 0.6},
    )
    svc = SchedulingService(cache_size=512)
    try:
        driver = LoadDriver(svc, concurrency=8, pace=False)
        result = driver.run(config, label="big-replay")
        with RunLedger(ledger_path) as ledger:
            load_id = ledger.record_load_run(result.to_row())
            row = ledger.load_run(load_id)
        # The HTML report must carry the row's stage percentiles.
        html_doc = render_load_report([row])
        for stage in ("admit", "cache"):
            if stage not in html_doc:
                failures.append(
                    f"stage {stage!r} missing from the HTML report"
                )
        # The dashboard must draw frames off the same live service.
        frames = Dashboard(svc, interval_s=0.05, ansi=False).run(
            iterations=2, stream=io.StringIO(), events=False
        )
        if frames != 2:
            failures.append(f"dashboard drew {frames} frame(s), wanted 2")
    finally:
        svc.close()
    if result.outcomes.get("error", 0):
        failures.append(
            f"{result.outcomes['error']} error(s) in the big replay"
        )
    if result.n_stage_violations:
        failures.append(
            f"big replay: {result.n_stage_violations} stage-sum "
            "violation(s)"
        )
    if not row.stages or "p99" not in next(iter(row.stages.values())):
        failures.append("archived load_run row lacks stage percentiles")
    pcts = result.percentiles()
    return {
        "load_id": load_id,
        "n_requests": result.n_requests,
        "achieved_rps": round(result.achieved_rps, 1),
        "duration_s": round(result.duration_s, 3),
        "outcomes": dict(sorted(result.outcomes.items())),
        "p99_ms": round(pcts.get("p99", 0.0) * 1e3, 3),
        "stages_recorded": sorted(row.stages),
        "report_bytes": len(html_doc),
        "dashboard_frames": frames,
    }


def main(argv=None):
    """CLI entry point; exits non-zero on any contract violation."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=None,
                        help="write the JSON report here")
    parser.add_argument("--duration", type=float, default=60.0,
                        help="paced live replay length, seconds "
                        "(default: 60)")
    parser.add_argument("--rate", type=float, default=120.0,
                        help="offered rate for the live replay "
                        "(default: 120 req/s)")
    parser.add_argument("--rate-tolerance", type=float, default=0.25,
                        help="allowed |achieved-offered|/offered "
                        "(default: 0.25)")
    parser.add_argument("--p99-limit", type=float, default=0.5,
                        help="live p99 ceiling in seconds (default: 0.5)")
    parser.add_argument("--concurrency", type=int, default=16,
                        help="driver dispatch threads (default: 16)")
    parser.add_argument("--big-requests", type=int, default=50000,
                        help="in-process replay size (default: 50000)")
    parser.add_argument("--db", default=None,
                        help="ledger path (default: a temp file)")
    args = parser.parse_args(argv)

    failures = []
    n_live = max(int(args.rate * args.duration), 10)
    config = gate_config(rate=args.rate, n_requests=n_live)

    tmp = None
    if args.db:
        ledger_path = args.db
    else:
        tmp = tempfile.NamedTemporaryFile(suffix=".db", delete=False)
        tmp.close()
        ledger_path = tmp.name
    try:
        determinism = check_determinism(config, failures)
        live = run_live_replay(
            config, ledger_path,
            rate_tolerance=args.rate_tolerance,
            p99_limit_s=args.p99_limit,
            concurrency=args.concurrency,
            failures=failures,
        )
        big = run_big_replay(
            ledger_path, n_requests=args.big_requests, failures=failures
        )
        with RunLedger(ledger_path) as ledger:
            for row in ledger.load_runs(limit=0):
                if row.extra.get("n_stage_violations", 0):
                    failures.append(
                        f"load_run #{row.load_id} has incomplete stage "
                        "sums"
                    )
            baseline = LOAD_GATE.baseline(ledger)
        # Only the paced live replay is machine-independent (achieved
        # rate tracks the plan, not the host): the unpaced big replay's
        # throughput/p99 measure raw host speed and would flap across
        # CI runners, so it stays out of the archived baseline.
        baseline = {k: v for k, v in baseline.items() if k == "live-gate"}
    finally:
        if tmp is not None:
            os.unlink(tmp.name)

    report = {
        "determinism": determinism,
        "live": live,
        "big_replay": big,
    }
    print(json.dumps(report, indent=2, sort_keys=True))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"load_gate": report, "load_baseline": baseline},
                      fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
