"""Ledger load_runs table: schema v3, archival, baselines, regressions."""

import json
import sqlite3

import pytest

from repro.obs.ledger import (
    LOAD_GATE,
    SCHEMA_VERSION,
    LoadRunRow,
    NullLedger,
    RunLedger,
)


def make_row(label="grp", achieved=200.0, p99=0.010, n_ok=100, **over):
    base = dict(
        label=label,
        config_fingerprint="cfg" + "0" * 61,
        sequence_fingerprint="seq" + "0" * 61,
        process="poisson",
        target="inproc",
        executor="thread",
        n_requests=n_ok,
        n_ok=n_ok,
        n_cached=0,
        n_rejected=0,
        n_errors=0,
        refusals={},
        offered_rps=achieved,
        achieved_rps=achieved,
        duration_s=n_ok / achieved,
        latency_mean_s=p99 / 2,
        latency_std_s=p99 / 10,
        p50_s=p99 / 3,
        p95_s=p99 * 0.8,
        p99_s=p99,
        cost_total=1.0,
        stages={"admit": {"p50": 1e-5, "p95": 2e-5, "p99": 3e-5}},
        sketches={},
        extra={"n_stage_violations": 0},
    )
    base.update(over)
    return LoadRunRow(**base)


class TestSchema:
    def test_fresh_database_is_v3_with_load_runs(self, tmp_path):
        path = str(tmp_path / "led.db")
        with RunLedger(path) as ledger:
            assert ledger.load_count() == 0
        conn = sqlite3.connect(path)
        try:
            version = conn.execute("PRAGMA user_version").fetchone()[0]
            tables = {r[0] for r in conn.execute(
                "SELECT name FROM sqlite_master WHERE type='table'"
            )}
        finally:
            conn.close()
        assert version == SCHEMA_VERSION == 3
        assert "load_runs" in tables

    def test_v2_database_migrates_to_v3(self, tmp_path):
        path = str(tmp_path / "led.db")
        with RunLedger(path):
            pass
        # Rewind to a v2 layout: drop the load table, stamp version 2.
        conn = sqlite3.connect(path)
        conn.execute("DROP TABLE load_runs")
        conn.execute("PRAGMA user_version = 2")
        conn.commit()
        conn.close()
        with RunLedger(path) as ledger:
            load_id = ledger.record_load_run(make_row())
            assert ledger.load_run(load_id).label == "grp"
        conn = sqlite3.connect(path)
        try:
            assert conn.execute(
                "PRAGMA user_version"
            ).fetchone()[0] == SCHEMA_VERSION
        finally:
            conn.close()


class TestArchival:
    def test_roundtrip_preserves_json_fields(self, tmp_path):
        with RunLedger(str(tmp_path / "led.db")) as ledger:
            row = make_row(refusals={"rate_limited": 3},
                           sketches={"request": {"alpha": 0.01}})
            load_id = ledger.record_load_run(row)
            got = ledger.load_run(load_id)
        assert got.refusals == {"rate_limited": 3}
        assert got.sketches == {"request": {"alpha": 0.01}}
        assert got.stages == row.stages
        assert got.recorded_at > 0
        assert json.dumps(got.to_dict())  # JSON-ready

    def test_filters_and_ordering(self, tmp_path):
        with RunLedger(str(tmp_path / "led.db")) as ledger:
            for i in range(5):
                ledger.record_load_run(
                    make_row(label="a" if i % 2 == 0 else "b")
                )
            a_rows = ledger.load_runs(label="a", limit=0)
            newest = ledger.load_runs(limit=2)
            assert len(a_rows) == 3
            assert [r.load_id for r in newest] == [5, 4]
            assert ledger.load_count() == 5

    def test_missing_load_run_raises_keyerror(self, tmp_path):
        with RunLedger(str(tmp_path / "led.db")) as ledger:
            with pytest.raises(KeyError):
                ledger.load_run(404)

    def test_writable_probe(self, tmp_path):
        with RunLedger(str(tmp_path / "led.db")) as ledger:
            assert ledger.writable() is True

    def test_null_ledger_is_inert(self):
        null = NullLedger()
        assert null.record_load_run(make_row()) == 0
        assert null.load_runs() == []
        assert null.load_count() == 0
        assert null.writable() is True
        with pytest.raises(KeyError):
            null.load_run(1)


class TestBaselineGate:
    def test_baseline_folds_groups(self, tmp_path):
        with RunLedger(str(tmp_path / "led.db")) as ledger:
            ledger.record_load_run(make_row("x", achieved=100.0))
            ledger.record_load_run(make_row("x", achieved=120.0))
            ledger.record_load_run(make_row("y", achieved=50.0))
            baseline = LOAD_GATE.baseline(ledger)
        assert set(baseline) == {"x", "y"}
        assert baseline["x"]["achieved_rps"] == pytest.approx(110.0)
        assert baseline["x"]["n_runs"] == 2

    def test_extract_requires_load_baseline_key(self):
        with pytest.raises(ValueError):
            LOAD_GATE.extract({"ledger_baseline": {}})
        with pytest.raises(ValueError):
            LOAD_GATE.extract({"load_baseline": {"g": {"p99_s": 1.0}}})
        good = {"load_baseline": {"g": {"achieved_rps": 10.0}}}
        assert LOAD_GATE.extract(good)["g"]["achieved_rps"] == 10.0

    def test_matching_current_passes(self, tmp_path):
        with RunLedger(str(tmp_path / "led.db")) as ledger:
            ledger.record_load_run(make_row())
            baseline = LOAD_GATE.baseline(ledger)
            report = LOAD_GATE.compare(ledger, baseline)
        assert report.ok
        assert not report.regressions
        assert "ok" in report.render()

    def test_throughput_collapse_is_flagged(self, tmp_path):
        baseline = {"grp": {"achieved_rps": 200.0, "p99_s": 0.010,
                            "n_runs": 1}}
        with RunLedger(str(tmp_path / "led.db")) as ledger:
            ledger.record_load_run(make_row(achieved=100.0))
            report = LOAD_GATE.compare(ledger, baseline)
        assert not report.ok
        assert report.regressions[0].group == "grp"

    def test_p99_blowup_is_flagged(self, tmp_path):
        baseline = {"grp": {"achieved_rps": 200.0, "p99_s": 0.010,
                            "n_runs": 1}}
        with RunLedger(str(tmp_path / "led.db")) as ledger:
            ledger.record_load_run(make_row(p99=0.050))
            report = LOAD_GATE.compare(ledger, baseline)
        assert not report.ok

    def test_missing_group_reported(self, tmp_path):
        baseline = {"ghost": {"achieved_rps": 10.0, "p99_s": 0.010}}
        with RunLedger(str(tmp_path / "led.db")) as ledger:
            report = LOAD_GATE.compare(ledger, baseline)
        assert report.missing_groups == ["ghost"]
        assert not report.ok

    def test_stat_gate_forgives_insignificant_latency_noise(self, tmp_path):
        # Mean latency wobbles inside the noise; Welch says no slowdown.
        baseline = {"grp": {
            "achieved_rps": 200.0, "p99_s": 0.010,
            "latency_mean_s": 0.005, "latency_std_s": 0.004,
            "n_samples": 100, "n_runs": 1,
        }}
        with RunLedger(str(tmp_path / "led.db")) as ledger:
            ledger.record_load_run(
                make_row(latency_mean_s=0.0052, latency_std_s=0.004)
            )
            report = LOAD_GATE.compare(ledger, baseline, stat=True)
        assert report.ok
        delta = report.deltas[0]
        assert delta.stat_tested

    def test_stat_gate_flags_significant_latency_slowdown(self, tmp_path):
        # +60% mean latency at n=100 a side is far outside the noise, yet
        # p99 and throughput sit exactly at the baseline: only Welch sees it.
        baseline = {"grp": {
            "achieved_rps": 200.0, "p99_s": 0.010,
            "latency_mean_s": 0.005, "latency_std_s": 0.004,
            "n_samples": 100, "n_runs": 1,
        }}
        with RunLedger(str(tmp_path / "led.db")) as ledger:
            ledger.record_load_run(
                make_row(latency_mean_s=0.008, latency_std_s=0.004)
            )
            assert LOAD_GATE.compare(ledger, baseline).ok
            report = LOAD_GATE.compare(ledger, baseline, stat=True)
        assert not report.ok
        delta = report.regressions[0]
        assert delta.stat_tested and delta.t_stat > delta.t_crit > 0
        assert "Welch" in report.render()
