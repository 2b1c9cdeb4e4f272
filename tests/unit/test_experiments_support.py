"""Unit tests for experiment config, harness helpers, and reporting."""

import numpy as np
import pytest

from repro.experiments.config import (
    ALL_ALGORITHMS,
    ONLINE_ALGORITHMS,
    PAPER,
    PAPER_HYPERPARAMETERS,
    QUICK,
    paper_balancer,
)
from repro.experiments.harness import reduction_vs
from repro.experiments.reporting import format_series, format_table, save_csv


class TestConfig:
    def test_paper_scale_matches_section_vi(self):
        assert PAPER.num_workers == 30
        assert PAPER.global_batch == 256
        assert PAPER.realizations == 100
        assert PAPER.accuracy_target == 0.95

    def test_quick_is_smaller(self):
        assert QUICK.num_workers < PAPER.num_workers
        assert QUICK.realizations < PAPER.realizations

    def test_algorithm_lists(self):
        assert "OPT" not in ONLINE_ALGORITHMS
        assert set(ALL_ALGORITHMS) == set(ONLINE_ALGORITHMS) | {"OPT"}

    def test_paper_hyperparameters(self):
        assert PAPER_HYPERPARAMETERS["DOLBIE"]["alpha_1"] == 0.001
        assert PAPER_HYPERPARAMETERS["OGD"]["learning_rate"] == 0.001
        assert PAPER_HYPERPARAMETERS["LB-BSP"]["delta"] == pytest.approx(5 / 256)
        assert PAPER_HYPERPARAMETERS["ABS"]["period"] == 5

    def test_paper_balancer_applies_hyperparameters(self):
        dolbie = paper_balancer("DOLBIE", 10)
        assert dolbie.alpha == pytest.approx(0.001)
        lbbsp = paper_balancer("LB-BSP", 10)
        assert lbbsp.patience == 5


class TestHarnessHelpers:
    def test_reduction_vs(self):
        assert reduction_vs(25.0, 100.0) == 75.0
        assert reduction_vs(100.0, 100.0) == 0.0
        assert np.isnan(reduction_vs(1.0, 0.0))

    def test_jobs_clamped_to_cpu_count_with_warning(self, monkeypatch, caplog):
        import logging
        from dataclasses import replace

        import repro.experiments.harness as harness
        import repro.experiments.stacked as stacked

        monkeypatch.setattr(harness.os, "cpu_count", lambda: 1)
        monkeypatch.setattr(stacked, "sweep_stacked", lambda *a, **k: None)
        tiny = replace(QUICK, num_workers=4, rounds=3, realizations=2)
        with caplog.at_level(logging.WARNING, logger="repro.experiments.harness"):
            sweeps = harness.sweep_realizations(
                "ResNet18", tiny, algorithms=["EQU"], jobs=8
            )
        assert len(sweeps["EQU"]) == tiny.realizations
        assert any(
            "jobs=8 exceeds cpu_count=1" in record.getMessage()
            for record in caplog.records
        )

    def test_jobs_within_cpu_count_stays_quiet(self, monkeypatch, caplog):
        import logging
        from dataclasses import replace

        import repro.experiments.harness as harness
        import repro.experiments.stacked as stacked

        monkeypatch.setattr(harness.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(stacked, "sweep_stacked", lambda *a, **k: None)
        tiny = replace(QUICK, num_workers=4, rounds=3, realizations=1)
        with caplog.at_level(logging.WARNING, logger="repro.experiments.harness"):
            harness.sweep_realizations("ResNet18", tiny, algorithms=["EQU"], jobs=2)
        assert not caplog.records


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [["a", 1.0], ["bb", 22.5]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")
        assert "22.5" in lines[3]

    def test_format_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [["only-one"]])

    def test_save_csv_roundtrip(self, tmp_path):
        path = save_csv(tmp_path / "out.csv", ["x", "y"], [[1, 2], [3, 4]])
        content = path.read_text().strip().splitlines()
        assert content == ["x,y", "1,2", "3,4"]

    def test_format_series_samples(self):
        text = format_series("lat", list(range(100)), every=25)
        assert text.startswith("lat:")
        assert len(text.split()) == 5  # label + 4 samples
