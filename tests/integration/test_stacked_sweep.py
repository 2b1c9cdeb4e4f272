"""Integration: the realization-stacked sweep engine vs. the serial loop.

:func:`repro.experiments.stacked.sweep_stacked` advances all realizations
of a sweep in lockstep as one batched policy per algorithm. Its contract
is bit-identity with the per-realization serial sweep: every simulated
series matches ``==``-exactly, and CSVs exported through either path are
byte-identical. These tests pin that contract end to end, including the
engagement/fallback conditions and the warm-materialization-cache rerun.
The serial loop is forced by patching ``sweep_stacked`` to return
``None``, the signal it gives when its preconditions fail.

``decision_seconds`` (and with ``include_overhead`` the wall clock) is
measured stopwatch time — never reproducible — so the scales here use
``include_overhead=False`` and the exact-field list excludes it, exactly
as ``test_materialization`` does for the vectorized trainer.
"""

from dataclasses import replace

import numpy as np
import pytest

import repro.experiments.stacked as stacked_module
from repro.experiments.config import QUICK
from repro.experiments.export_all import export_all
from repro.experiments.harness import RealizationSpec, sweep_realizations
from repro.experiments.stacked import stacked_supported, sweep_stacked

SMALL = replace(
    QUICK,
    num_workers=6,
    rounds=25,
    realizations=3,
    include_overhead=False,
)

EXACT_FIELDS = [
    "batch_fractions",
    "batch_sizes",
    "compute_time",
    "comm_time",
    "local_latency",
    "round_latency",
    "waiting_time",
    "stragglers",
    "wall_clock",
    "epochs",
    "accuracy",
]


def _assert_sweeps_identical(first, second, realizations):
    assert first.keys() == second.keys()
    for name in first:
        assert len(first[name]) == realizations
        for run_a, run_b in zip(first[name], second[name]):
            for field in EXACT_FIELDS:
                assert np.array_equal(
                    getattr(run_a, field), getattr(run_b, field)
                ), (name, field)


def _decline_stacked(monkeypatch):
    """From here on sweeps run the per-realization loop."""
    monkeypatch.setattr(
        stacked_module, "sweep_stacked", lambda *args, **kwargs: None
    )


class TestStackedBitIdentity:
    def test_stacked_and_serial_sweeps_identical(self, monkeypatch):
        stacked = sweep_realizations("ResNet18", SMALL)
        _decline_stacked(monkeypatch)
        serial = sweep_realizations("ResNet18", SMALL)
        _assert_sweeps_identical(stacked, serial, SMALL.realizations)

    def test_warm_cache_rerun_is_identical(self):
        first = sweep_realizations("ResNet18", SMALL)  # populates cache
        second = sweep_realizations("ResNet18", SMALL)  # pure hits
        _assert_sweeps_identical(first, second, SMALL.realizations)

    def test_cache_disabled_sweep_is_identical(self, monkeypatch):
        cached = sweep_realizations("ResNet18", SMALL)
        monkeypatch.setenv("REPRO_CACHE", "0")
        uncached = sweep_realizations("ResNet18", SMALL)
        _assert_sweeps_identical(cached, uncached, SMALL.realizations)

    @pytest.mark.parametrize("figure", ["fig4", "fig5"])
    def test_exported_csv_bytes_identical(self, figure, tmp_path, monkeypatch):
        (stacked_csv,) = export_all(
            tmp_path / "stacked", SMALL, only=[figure]
        )
        _decline_stacked(monkeypatch)
        (serial_csv,) = export_all(tmp_path / "serial", SMALL, only=[figure])
        assert stacked_csv.read_bytes() == serial_csv.read_bytes()


class TestEngagementAndFallback:
    def test_default_serial_sweep_takes_the_stacked_path(self, monkeypatch):
        calls = []
        original = stacked_module.sweep_stacked

        def spy(*args, **kwargs):
            result = original(*args, **kwargs)
            calls.append(result is not None)
            return result

        monkeypatch.setattr(stacked_module, "sweep_stacked", spy)
        sweep_realizations("ResNet18", SMALL)
        assert calls == [True]

    def test_declined_stacked_sweep_runs_the_serial_loop(self, monkeypatch):
        runs = []
        original = RealizationSpec.run

        def spy(spec):
            runs.append(spec.seed)
            return original(spec)

        monkeypatch.setattr(RealizationSpec, "run", spy)
        _decline_stacked(monkeypatch)
        sweeps = sweep_realizations("ResNet18", SMALL)
        assert runs == list(range(SMALL.realizations))
        assert len(sweeps["DOLBIE"]) == SMALL.realizations

    def test_unknown_algorithm_is_unsupported(self):
        assert not stacked_supported(SMALL, ["DOLBIE", "MYSTERY"])
        assert sweep_stacked("ResNet18", SMALL, algorithms=["MYSTERY"]) is None

    def test_subset_of_algorithms_still_matches(self, monkeypatch):
        algorithms = ["EQU", "DOLBIE", "OPT"]
        stacked = sweep_realizations("ResNet18", SMALL, algorithms=algorithms)
        _decline_stacked(monkeypatch)
        serial = sweep_realizations("ResNet18", SMALL, algorithms=algorithms)
        assert sorted(stacked) == sorted(algorithms)
        _assert_sweeps_identical(stacked, serial, SMALL.realizations)
