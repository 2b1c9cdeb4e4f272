"""Integration tests for the FD tree round (fused kernels + plans).

The round's observables against a fixed reference are pinned by the
``fd-tree`` golden traces (``tests/integration/test_golden_traces.py``).
These tests pin the rest: any shard process count is **bit-identical**
to serial (traces, ledgers, metrics, virtual clock), tree rounds under
a fault schedule keep every invariant (including invariant 7, overlay
consistency), the historical ``backend="compiled"`` name still runs
tree rounds, and the aggregation config round-trips through snapshots
with a dtype mismatch rejected loudly.
"""

import numpy as np
import pytest

from repro.chaos.faults import FaultSchedule
from repro.chaos.soak import run_soak
from repro.ckpt.state import capture_protocol, restore_protocol
from repro.costs.timevarying import DriftingAffineProcess
from repro.exceptions import CheckpointError, ConfigurationError
from repro.net.links import ConstantLatency, Link, UniformLatency
from repro.obs import Tracer, diff_traces
from repro.protocols.fully_distributed import (
    SHARD_PROCS_ENV,
    FullyDistributedDolbie,
)


def _process(n, seed=0):
    speeds = [1.0 + 3.0 * (i / max(n - 1, 1)) for i in range(n)]
    return DriftingAffineProcess(speeds, amplitude=0.25, period=40.0, seed=seed)


def _protocol(n, **kwargs):
    link = kwargs.pop(
        "link", Link(UniformLatency(0.0005, 0.005, np.random.default_rng(n)))
    )
    return FullyDistributedDolbie(
        n, link=link, aggregation="tree", **kwargs
    )


def _same_round(a, b):
    """Two ``run_round`` results are bit-identical (NaN-aware)."""
    return (
        np.array_equal(a[0], b[0])
        and np.array_equal(a[1], b[1], equal_nan=True)
        and a[2] == b[2]
        and a[3] == b[3]
    )


def _assert_observationally_equal(a, b, result_a, result_b):
    assert np.array_equal(result_a.allocations, result_b.allocations)
    assert np.array_equal(result_a.global_costs, result_b.global_costs)
    assert np.array_equal(result_a.stragglers, result_b.stragglers)
    assert np.array_equal(
        result_a.local_costs, result_b.local_costs, equal_nan=True
    )
    assert a.ledger == b.ledger
    for i in range(a.num_workers):
        assert a.worker_ledger(i) == b.worker_ledger(i)
    assert a.metrics.messages_total == b.metrics.messages_total
    assert a.metrics.bytes_total == b.metrics.bytes_total
    assert a.metrics.per_pair_messages == b.metrics.per_pair_messages
    assert a.cluster.engine.now == b.cluster.engine.now
    assert a.cluster.engine.processed_events == b.cluster.engine.processed_events
    assert [p.x for p in a.peers] == [p.x for p in b.peers]
    assert [p.alpha_bar for p in a.peers] == [p.alpha_bar for p in b.peers]


def test_compiled_name_still_runs_tree_rounds():
    protocol = _protocol(64, backend="compiled")
    assert protocol.backend.name == "numpy64"
    protocol.run(_process(64), 3)
    assert protocol.tree_rounds == 3


class TestParallelProcs:
    """The process layer (Layer 10): each process writes a disjoint shard
    range, so any process count must be bit-identical to serial —
    including the acceptance pin at N=1000 with an empty trace diff."""

    @pytest.mark.parametrize("procs", [2, 3])
    def test_any_process_count_is_bit_identical_to_serial(self, procs):
        n, horizon = 120, 4
        serial = _protocol(n, shard_procs=1)
        parallel = _protocol(n, shard_procs=procs)
        result_serial = serial.run(_process(n), horizon)
        result_parallel = parallel.run(_process(n), horizon)
        _assert_observationally_equal(
            serial, parallel, result_serial, result_parallel
        )

    def test_float32_rounds_match_serial(self):
        # The shared segment's alpha buffers follow the backend dtype,
        # like the serial round's mirror.
        n, horizon = 120, 4
        serial = _protocol(n, backend="numpy32", shard_procs=1)
        parallel = _protocol(n, backend="numpy32", shard_procs=2)
        result_serial = serial.run(_process(n), horizon)
        result_parallel = parallel.run(_process(n), horizon)
        assert parallel.tree_rounds == horizon
        _assert_observationally_equal(
            serial, parallel, result_serial, result_parallel
        )

    def test_procs2_trace_diff_empty_and_ledgers_equal_at_n1000(self):
        n, horizon = 1000, 3
        runs = {}
        for procs in (1, 2):
            tracer = Tracer()
            protocol = _protocol(
                n, shard_procs=procs, tracer=tracer
            )
            runs[procs] = (
                protocol, protocol.run(_process(n), horizon), tracer
            )
            assert protocol.tree_rounds == horizon
        diff = diff_traces(runs[1][2].trace, runs[2][2].trace)
        assert diff.empty, diff.summary()
        assert runs[1][0].ledger == runs[2][0].ledger
        _assert_observationally_equal(
            runs[1][0], runs[2][0], runs[1][1], runs[2][1]
        )

    def test_membership_churn_respawns_the_shared_segment(self):
        # Crash/rejoin invalidates the compiled round: the old shm
        # segment must be released and a fresh one attached, with the
        # whole episode still bit-identical to serial.
        n, seed = 60, 3
        runs = {}
        for procs in (1, 2):
            protocol = _protocol(
                n, shard_size=8, shard_procs=procs
            )
            process = _process(n, seed=seed)
            outcomes = []
            for t in range(1, 13):
                if t == 4:
                    protocol.crash_worker(17)
                if t == 8:
                    protocol.rejoin_worker(17)
                x, _, cost, straggler = protocol.run_round(
                    t, process.costs_at(t)
                )
                outcomes.append((tuple(x), cost, straggler))
            runs[procs] = (protocol, outcomes)
        assert runs[1][1] == runs[2][1]
        assert runs[1][0].ledger == runs[2][0].ledger

    def test_env_default_and_validation(self, monkeypatch):
        monkeypatch.setenv(SHARD_PROCS_ENV, "2")
        assert _protocol(10, backend="compiled").shard_procs == 2
        monkeypatch.delenv(SHARD_PROCS_ENV)
        assert _protocol(10, backend="compiled").shard_procs == 1
        with pytest.raises(ConfigurationError, match="shard_procs"):
            _protocol(10, shard_procs=0)

    def test_pool_failure_falls_back_to_serial_with_warning(self, monkeypatch):
        from repro.backend import shardpool
        from repro.protocols import fully_distributed as fd

        def broken_pool(procs):
            raise OSError("no process pool here")

        monkeypatch.setattr(shardpool, "get_pool", broken_pool)
        monkeypatch.setattr(fd, "_warned_shard_procs_fallback", False)
        serial = _protocol(40, shard_procs=1)
        degraded = _protocol(40, shard_procs=2)
        result_serial = serial.run(_process(40), 3)
        # The compiled round (and with it the pool attempt) is built
        # lazily on the first eligible round.
        with pytest.warns(RuntimeWarning, match="shard_procs"):
            result_degraded = degraded.run(_process(40), 3)
        _assert_observationally_equal(
            serial, degraded, result_serial, result_degraded
        )


class TestChaosSoak:
    N = 12
    ROUNDS = 160

    def _factory(self):
        def factory():
            return FullyDistributedDolbie(
                self.N,
                link=Link(ConstantLatency(0.001)),
                aggregation="tree",
                shard_size=4,
            )

        return factory

    def test_compiled_tree_soak_keeps_all_invariants(self):
        # run_soak checks every invariant after every round — including
        # invariant 7 (overlay consistency) on the rounds that took the
        # tree path. (The checker's simplex tolerance is float64's, so
        # the soak runs the default dtype.)
        schedule = FaultSchedule.random(self.N, self.ROUNDS, seed=42)
        process = _process(self.N, seed=11)
        report = run_soak(self._factory(), schedule, process, self.ROUNDS)
        assert report.ok, report.summary()
        assert report.rounds_completed == self.ROUNDS
        assert report.violations == ()


class TestCheckpointRoundTrip:
    def _advance(self, protocol, process, start, stop):
        for t in range(start, stop):
            protocol.run_round(t, process.costs_at(t))

    def test_compiled_parallel_config_round_trips(self):
        n = 24
        protocol = _protocol(n, backend="compiled", shard_size=5)
        process = _process(n)
        self._advance(protocol, process, 1, 6)
        state = capture_protocol(protocol)
        # The alias is stamped as the backend it resolves to, and the
        # retired thread count and peer_store flag are no longer written.
        assert state["aggregation"]["backend"] == "numpy64"
        assert "shard_threads" not in state["aggregation"]
        assert "peer_store" not in state["aggregation"]

        replica = _protocol(n, shard_size=5)
        restore_protocol(replica, state)
        self._advance(protocol, process, 6, 10)
        self._advance(replica, _process(n), 6, 10)
        assert np.array_equal(replica.allocation, protocol.allocation)
        assert replica.ledger == protocol.ledger

    @pytest.mark.parametrize("target", ["numpy64", "compiled"])
    def test_compiled_stamped_snapshot_resumes_bit_identically(self, target):
        # Snapshots written while "compiled" was its own backend carry
        # that name and a shard_threads field; both must restore.
        n = 24
        protocol = _protocol(n, shard_size=5)
        process = _process(n)
        self._advance(protocol, process, 1, 6)
        state = capture_protocol(protocol)
        state["aggregation"]["backend"] = "compiled"
        state["aggregation"]["shard_threads"] = 3
        replica = _protocol(n, backend=target, shard_size=5)
        restore_protocol(replica, state)
        reference = protocol.run_round
        for t in range(6, 12):
            costs = process.costs_at(t)
            assert _same_round(reference(t, costs), replica.run_round(t, costs))
        assert replica.ledger == protocol.ledger
        assert replica.metrics.messages_total == protocol.metrics.messages_total
        assert replica.cluster.engine.now == protocol.cluster.engine.now

    def test_backend_mismatch_is_rejected(self):
        n = 12
        protocol = _protocol(n, backend="numpy32", shard_size=4)
        self._advance(protocol, _process(n), 1, 3)
        state = capture_protocol(protocol)
        with pytest.raises(CheckpointError, match="aggregation config"):
            restore_protocol(_protocol(n, shard_size=4), state)
        # A compiled-stamped (float64) snapshot does not fit a float32
        # protocol either.
        state["aggregation"]["backend"] = "compiled"
        with pytest.raises(CheckpointError, match="aggregation config"):
            restore_protocol(_protocol(n, backend="numpy32", shard_size=4), state)
