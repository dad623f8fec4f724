"""Statistical regression gating: pooled sample stats and the Welch test."""

import numpy as np
import pytest

from repro.obs.ledger import (
    RUN_GATE,
    RunLedger,
    RunRow,
    welch_slowdown,
)
from repro.obs.ledger import _t_quantile  # accuracy-checked directly


def make_row(makespan, std, n=20):
    return RunRow(
        source="sweep", workflow="montage-20", family="montage",
        n_tasks=20, algorithm="heft_budg", budget=1.0, sigma_ratio=0.5,
        planned_makespan=100.0, planned_cost=1.0, sim_makespan=makespan,
        sim_cost=1.0, success_rate=1.0, n_reps=n,
        extra={"makespan_stats": {"mean": makespan, "std": std, "n": n,
                                  "min": makespan - std,
                                  "max": makespan + std}},
    )


def ledger_with(rows):
    ledger = RunLedger()
    for row in rows:
        ledger.record(row)
    return ledger


GROUP = "montage/20/heft_budg"


class TestPooledStats:
    def test_group_stats_pool_rows_exactly(self):
        # pooling K rows of n reps must equal stats of the K·n union sample
        rng = np.random.default_rng(7)
        samples = [rng.normal(100, 15, 20) for _ in range(3)]
        rows = [
            make_row(float(s.mean()), float(s.std(ddof=1))) for s in samples
        ]
        with ledger_with(rows) as ledger:
            stats = ledger.group_stats()[GROUP]
        union = np.concatenate(samples)
        assert stats["n_samples"] == 60.0
        assert stats["makespan_sample_mean"] == pytest.approx(
            union.mean(), rel=1e-12
        )
        assert stats["makespan_std"] == pytest.approx(
            union.std(ddof=1), rel=1e-9
        )

    def test_rows_without_stats_omit_pooled_keys(self):
        row = make_row(100.0, 15.0)
        object.__setattr__(row, "extra", {})
        with ledger_with([row]) as ledger:
            stats = ledger.group_stats()[GROUP]
        assert "makespan_std" not in stats and "n_samples" not in stats

    def test_baseline_carries_sample_stats(self):
        with ledger_with([make_row(100.0, 15.0)]) as ledger:
            baseline = RUN_GATE.baseline(ledger)
        group = baseline[GROUP]
        assert group["n_samples"] == 20.0 and group["makespan_std"] > 0


class TestWelchGate:
    def baseline(self):
        with ledger_with([make_row(100.0, 15.0) for _ in range(3)]) as led:
            return RUN_GATE.baseline(led)

    def test_significant_slowdown_fails_even_below_fixed_threshold(self):
        # +8% is inside the default 10% fixed tolerance, but with n=60 a
        # side and std 15 the Welch t is ~3 — a real slowdown.
        base = self.baseline()
        with ledger_with([make_row(108.0, 15.0) for _ in range(3)]) as led:
            assert RUN_GATE.compare(led, base).ok
            report = RUN_GATE.compare(led, base, stat=True)
        assert not report.ok
        delta = report.deltas[0]
        assert delta.stat_tested and delta.t_stat > delta.t_crit > 0
        assert "Welch" in report.render()

    def test_insignificant_wobble_passes(self):
        base = self.baseline()
        with ledger_with([make_row(101.0, 15.0) for _ in range(3)]) as led:
            report = RUN_GATE.compare(led, base, stat=True)
        assert report.ok and report.deltas[0].stat_tested

    def test_noisy_but_flat_group_passes_stat_fails_fixed(self):
        # wide replication variance: +12% mean shift is indistinguishable
        # from noise — the whole point of --stat
        base = {k: dict(v, makespan_std=80.0) for k, v in
                self.baseline().items()}
        with ledger_with([make_row(112.0, 80.0) for _ in range(3)]) as led:
            assert not RUN_GATE.compare(led, base).ok
            assert RUN_GATE.compare(led, base, stat=True).ok

    def test_groups_without_stats_fall_back_to_fixed_threshold(self):
        row = make_row(120.0, 15.0)
        object.__setattr__(row, "extra", {})
        base = {GROUP: {"makespan": 100.0, "cost": 1.0, "n_runs": 1,
                        "success_rate": 1.0}}
        with ledger_with([row]) as led:
            report = RUN_GATE.compare(led, base, stat=True)
        assert not report.ok  # +20% trips the fixed gate
        assert not report.deltas[0].stat_tested

    def test_cost_gate_unchanged_by_stat_mode(self):
        base = self.baseline()
        rows = [make_row(100.0, 15.0) for _ in range(3)]
        for row in rows:
            object.__setattr__(row, "sim_cost", 2.0)  # +100% cost
        with ledger_with(rows) as led:
            report = RUN_GATE.compare(led, base, stat=True)
        assert not report.ok

    def test_confidence_validated(self):
        with ledger_with([make_row(100.0, 15.0)]) as led:
            with pytest.raises(ValueError, match="confidence"):
                RUN_GATE.compare(led, self.baseline(), stat=True,
                                    confidence=1.5)


class TestWelchMath:
    def test_t_quantile_against_tables(self):
        # textbook one-sided 95% critical values
        for df, expected in [(10, 1.8125), (30, 1.6973), (120, 1.6577)]:
            assert _t_quantile(0.95, df) == pytest.approx(expected, abs=0.02)

    def test_degenerate_inputs_never_significant(self):
        assert welch_slowdown((100, 0, 1), (110, 0, 1))[0] is False
        assert welch_slowdown((100, 0, 10), (110, 0, 10))[0] is False

    def test_faster_is_never_flagged(self):
        significant, t_stat, _ = welch_slowdown(
            (100, 10, 30), (80, 10, 30)
        )
        assert significant is False and t_stat < 0
