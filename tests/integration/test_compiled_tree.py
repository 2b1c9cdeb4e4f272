"""Integration tests for the FD tree round (fused kernels + plans).

The round's observables against a fixed reference are pinned by the
``fd-tree`` golden traces (``tests/integration/test_golden_traces.py``).
These tests pin the rest: tree rounds under a fault schedule keep every
invariant (including invariant 7, overlay consistency), the historical
``backend="compiled"`` name still runs tree rounds, and the aggregation
config round-trips through snapshots with a dtype mismatch rejected
loudly.
"""

import numpy as np
import pytest

from repro.chaos.faults import FaultSchedule
from repro.chaos.soak import run_soak
from repro.ckpt.state import capture_protocol, restore_protocol
from repro.costs.timevarying import DriftingAffineProcess
from repro.exceptions import CheckpointError
from repro.net.links import ConstantLatency, Link, UniformLatency
from repro.protocols.fully_distributed import FullyDistributedDolbie


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


def test_compiled_name_still_runs_tree_rounds():
    protocol = _protocol(64, backend="compiled")
    assert protocol.backend.name == "numpy64"
    protocol.run(_process(64), 3)
    assert protocol.tree_rounds == 3


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
        # retired thread/process counts and peer_store flag are no
        # longer written.
        assert state["aggregation"]["backend"] == "numpy64"
        assert "shard_threads" not in state["aggregation"]
        assert "shard_procs" not in state["aggregation"]
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
        # that name and the retired executor-count fields; all restore.
        n = 24
        protocol = _protocol(n, shard_size=5)
        process = _process(n)
        self._advance(protocol, process, 1, 6)
        state = capture_protocol(protocol)
        state["aggregation"]["backend"] = "compiled"
        state["aggregation"]["shard_threads"] = 3
        state["aggregation"]["shard_procs"] = 2
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
