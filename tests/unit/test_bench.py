"""Unit tests for the perf-regression benchmark machinery."""

import json

import pytest

import repro.experiments.bench as bench
from repro.experiments.bench import (
    BENCH,
    FLOOR,
    SCHEMA,
    BenchmarkResult,
    Gate,
    append_history,
    compare_to_baseline,
    load_results,
    write_results,
)


def _result(name="fig4", ratio=5.0, gate=FLOOR):
    return BenchmarkResult(
        name=name,
        reference_s=1.0,
        candidate_s=1.0 / ratio,
        ratio=ratio,
        rounds=1000,
        gate=gate,
    )


def _baseline(**ratios):
    return {
        "schema": SCHEMA,
        "benchmarks": {name: {"ratio": value} for name, value in ratios.items()},
    }


class TestCompareToBaseline:
    def test_passes_within_tolerance(self):
        failures, notices = compare_to_baseline(
            [_result(ratio=4.0)], _baseline(fig4=5.0), tolerance=0.3
        )
        assert failures == []
        assert notices == []

    def test_fails_below_tolerance(self):
        failures, notices = compare_to_baseline(
            [_result(ratio=3.0)], _baseline(fig4=5.0), tolerance=0.3
        )
        assert len(failures) == 1
        assert "fig4" in failures[0]
        assert notices == []

    def test_improvements_always_pass(self):
        failures, notices = compare_to_baseline(
            [_result(ratio=50.0)], _baseline(fig4=5.0), tolerance=0.0
        )
        assert failures == []
        assert notices == []

    def test_missing_benchmark_is_notice_not_failure(self):
        # A brand-new benchmark with no committed baseline entry must not
        # fail the run (the baseline cannot predate the benchmark); it is
        # reported as a notice pointing at --update-baseline.
        failures, notices = compare_to_baseline(
            [_result(name="brand_new")], _baseline(fig4=5.0)
        )
        assert failures == []
        assert len(notices) == 1
        assert "brand_new" in notices[0]
        assert "no baseline" in notices[0]
        assert "--update-baseline" in notices[0]

    def test_entry_without_ratio_key_is_notice(self):
        # A baseline entry missing the "ratio" key is a notice like a
        # missing entry, not a KeyError.
        baseline = {
            "schema": SCHEMA,
            "benchmarks": {"fig4": {"reference_s": 1.0}},
        }
        failures, notices = compare_to_baseline([_result()], baseline)
        assert failures == []
        assert len(notices) == 1
        assert "fig4" in notices[0]
        assert "no baseline" in notices[0]

    def test_floors_unchecked_without_baseline(self):
        assert compare_to_baseline([_result(ratio=0.1)], None) == ([], [])

    def test_ceiling_and_budget_ignore_the_baseline(self):
        results = [
            _result(name="over", ratio=1.1, gate=Gate("ceiling", 1.05)),
            _result(name="slow", ratio=2.0, gate=Gate("budget", 0.4)),
        ]
        failures, notices = compare_to_baseline(results, None)
        assert notices == []
        assert [failure.split(":")[0] for failure in failures] == ["over", "slow"]
        assert "ceiling 1.05x" in failures[0]
        assert "0.500s exceeds its budget 0.4s" in failures[1]

    def test_tolerance_validated(self):
        with pytest.raises(ValueError):
            compare_to_baseline([_result()], _baseline(fig4=5.0), tolerance=1.0)
        with pytest.raises(ValueError):
            compare_to_baseline([_result()], _baseline(fig4=5.0), tolerance=-0.1)


class TestResultsFile:
    def test_round_trip(self, tmp_path):
        path = write_results(
            [_result(), _result(name="fig5", ratio=6.0, gate=Gate("budget", 2.0))],
            tmp_path / "BENCH_results.json",
            BENCH,
        )
        data = load_results(path)
        assert data["schema"] == SCHEMA
        assert data["scale"]["rounds"] == BENCH.rounds
        assert set(data["benchmarks"]) == {"fig4", "fig5"}
        fig4, fig5 = data["benchmarks"]["fig4"], data["benchmarks"]["fig5"]
        assert fig5["ratio"] == pytest.approx(6.0)
        assert (fig4["gate"], fig4["limit"]) == ("floor", None)
        assert (fig5["gate"], fig5["limit"]) == ("budget", 2.0)

    def test_unknown_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": 999, "benchmarks": {}}))
        with pytest.raises(ValueError):
            load_results(path)

    def test_rounds_per_s(self):
        result = _result(ratio=4.0)
        assert result.rounds_per_s == pytest.approx(4000.0)


class TestHistory:
    def test_each_run_appends_one_json_line(self, tmp_path):
        path = tmp_path / "BENCH_history.jsonl"
        append_history([_result(ratio=4.0)], path)
        append_history([_result(ratio=5.0)], path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        first, second = (json.loads(line) for line in lines)
        assert first["benchmarks"]["fig4"]["ratio"] == pytest.approx(4.0)
        assert second["benchmarks"]["fig4"]["ratio"] == pytest.approx(5.0)
        for entry in (first, second):
            assert "timestamp" in entry
            assert "git_sha" in entry  # present even when git is unavailable

    def test_unwritable_history_is_silent(self, tmp_path):
        target = tmp_path / "not-a-dir" / "BENCH_history.jsonl"
        append_history([_result()], target)  # must not raise


class TestPeakRss:
    def test_helper_reports_positive_bytes_on_posix(self):
        from repro.experiments.bench import _peak_rss_bytes

        peak = _peak_rss_bytes()
        # this test process has certainly used more than 10 MB
        assert peak > 10 * 1024 * 1024

    def test_results_and_history_carry_peak_rss(self, tmp_path):
        result = BenchmarkResult(
            name="fig4",
            reference_s=1.0,
            candidate_s=0.5,
            ratio=2.0,
            rounds=10,
            peak_rss_bytes=123_456_789,
        )
        data = load_results(write_results([result], tmp_path / "r.json", BENCH))
        assert data["benchmarks"]["fig4"]["peak_rss_bytes"] == 123_456_789
        history = tmp_path / "h.jsonl"
        append_history([result], history)
        line = json.loads(history.read_text())
        assert line["benchmarks"]["fig4"]["peak_rss_bytes"] == 123_456_789

    def test_default_is_zero_for_hand_built_results(self):
        assert _result().peak_rss_bytes == 0


class TestGatesTable:
    def test_every_entry_has_a_gate(self):
        assert sorted(bench._suite(BENCH, 1)) == sorted(bench.GATES)

    def test_gate_kinds_and_limits(self):
        for name, (kind, limit) in bench.GATES.items():
            assert kind in ("floor", "ceiling", "budget"), name
            assert (limit is None) == (kind == "floor"), name


class TestMainExitCode:
    """``main`` exits 1 when any entry misses its gate, one case per kind."""

    def _main(self, monkeypatch, tmp_path, results, baseline=None):
        monkeypatch.setattr(bench, "run_benchmarks", lambda *args, **kwargs: results)
        baseline_path = tmp_path / "baseline.json"
        if baseline is not None:
            baseline_path.write_text(json.dumps(baseline))
        return bench.main(
            out=tmp_path / "out.json", baseline=baseline_path, quick=True
        )

    def test_all_gates_met_exits_zero(self, monkeypatch, tmp_path):
        results = [
            _result(name="fast", ratio=4.0),
            _result(name="lean", ratio=1.01, gate=Gate("ceiling", 1.05)),
            _result(name="quick", ratio=2.0, gate=Gate("budget", 1.0)),
        ]
        baseline = _baseline(fast=5.0)
        assert self._main(monkeypatch, tmp_path, results, baseline) == 0

    def test_floor_below_baseline_fails(self, monkeypatch, tmp_path, capsys):
        results = [_result(name="fast", ratio=3.0)]
        baseline = _baseline(fast=5.0)
        assert self._main(monkeypatch, tmp_path, results, baseline) == 1
        assert "fast: ratio 3.00x fell below 3.50x" in capsys.readouterr().err

    def test_ceiling_exceeded_fails(self, monkeypatch, tmp_path, capsys):
        results = [_result(name="lean", ratio=1.2, gate=Gate("ceiling", 1.05))]
        assert self._main(monkeypatch, tmp_path, results) == 1
        assert "lean: ratio 1.200x exceeds its ceiling" in capsys.readouterr().err

    def test_budget_exceeded_fails(self, monkeypatch, tmp_path, capsys):
        results = [_result(name="slow", ratio=0.5, gate=Gate("budget", 1.0))]
        assert self._main(monkeypatch, tmp_path, results) == 1
        assert "slow: 2.000s exceeds its budget 1s" in capsys.readouterr().err
