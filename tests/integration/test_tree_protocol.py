"""Integration tests for hierarchical (tree) aggregation in the FD protocol.

Covers the tentpole contracts end to end: tree rounds reach the *exact*
flat consensus (straggler, global cost) while moving O(N) messages;
the trajectory gap against flat stays at the documented rounding level
and the measured regret gap is negligible; the float32 backend is
bit-stable run-to-run with the dtype asserted through the hot path;
crash -> batched failure detection -> reshard keeps the chaos
invariants clean, with no event-engine round; and the
aggregation configuration round-trips through checkpoint save/restore.
"""

import numpy as np
import pytest

from repro.chaos.invariants import RoundObservation, check_round_invariants
from repro.ckpt.state import capture_protocol, restore_protocol
from repro.costs.timevarying import DriftingAffineProcess
from repro.exceptions import CheckpointError, ConfigurationError
from repro.net.links import ConstantLatency, Link
from repro.protocols.fully_distributed import FullyDistributedDolbie


def _process(n, seed=0):
    speeds = [1.0 + 3.0 * (i / max(n - 1, 1)) for i in range(n)]
    return DriftingAffineProcess(speeds, amplitude=0.25, period=40.0, seed=seed)


def _protocol(n, **kwargs):
    return FullyDistributedDolbie(
        n, link=Link(ConstantLatency(0.001)), **kwargs
    )


class TestConsensusExactness:
    def test_tree_matches_flat_consensus_every_round(self):
        n, horizon = 23, 10
        flat = _protocol(n).run(_process(n), horizon)
        tree_protocol = _protocol(n, aggregation="tree", shard_size=4)
        tree = tree_protocol.run(_process(n), horizon)
        assert tree_protocol.tree_rounds == horizon
        # Round 1 plays the identical allocation, so the consensus there
        # is exact *bitwise*; later rounds' inputs differ by the decision
        # sum's reassociation dust, so their outcomes match to rounding.
        assert tree.global_costs[0] == flat.global_costs[0]
        assert np.array_equal(tree.stragglers, flat.stragglers)
        np.testing.assert_allclose(
            tree.global_costs, flat.global_costs, rtol=1e-12
        )
        # the decision SUM is reassociated -> rounding-level trajectory gap
        gap = np.abs(tree.allocations - flat.allocations).max()
        assert gap < 1e-12
        assert np.allclose(tree.allocations.sum(axis=1), 1.0, atol=1e-9)

    def test_message_complexity_is_linear(self):
        n, horizon = 60, 3
        tree_protocol = _protocol(n, aggregation="tree")
        tree_protocol.run(_process(n), horizon)
        flat_protocol = _protocol(n)
        flat_protocol.run(_process(n), horizon)
        per_round_tree = tree_protocol.metrics.messages_total / horizon
        per_round_flat = flat_protocol.metrics.messages_total / horizon
        assert per_round_flat >= n * (n - 1)
        assert per_round_tree < 4 * n  # ~3N frames per tree round

    def test_regret_gap_is_negligible(self):
        from repro.experiments.aggregation_experiment import run
        from repro.experiments.config import QUICK

        comparison = run(QUICK, num_workers=40, horizon=30)
        assert comparison.tree_rounds["tree"] == 30
        assert abs(comparison.regret_gap) < 1e-9
        assert abs(comparison.regret["flat"]) > 1e-3  # gap is relative to this

    def test_tree_requires_complete_topology(self):
        from repro.net.topology import Topology

        ring = Topology.ring(8)
        with pytest.raises(ConfigurationError):
            _protocol(8, aggregation="tree", topology=ring)


class TestFloat32Backend:
    def test_float32_is_bit_stable_run_to_run(self):
        n, horizon = 23, 8
        runs = []
        for _ in range(2):
            protocol = _protocol(n, aggregation="tree", backend="numpy32")
            runs.append(protocol.run(_process(n), horizon))
            assert protocol.tree_rounds == horizon
        assert np.array_equal(runs[0].allocations, runs[1].allocations)
        assert np.array_equal(runs[0].global_costs, runs[1].global_costs)

    def test_float32_dtype_is_asserted_end_to_end(self):
        # backend.ensure raises BackendError if any hot-path array leaves
        # float32; a clean run is the assertion. The boundary contract:
        # results surface as float64.
        n, horizon = 16, 5
        protocol = _protocol(n, aggregation="tree", backend="numpy32")
        result = protocol.run(_process(n), horizon)
        assert protocol.backend.dtype == np.dtype(np.float32)
        assert result.allocations.dtype == np.float64
        # simplex holds to float32 resolution
        assert np.abs(result.allocations.sum(axis=1) - 1.0).max() < 1e-5

    def test_flat_fast_path_accepts_float32_backend(self):
        n, horizon = 12, 5
        protocol = _protocol(n, backend="numpy32")
        result = protocol.run(_process(n), horizon)
        assert protocol.fast_rounds == horizon
        assert np.abs(result.allocations.sum(axis=1) - 1.0).max() < 1e-5


class TestCrashReshard:
    def test_crash_falls_back_then_resumes_tree_on_degraded_roster(self):
        n = 30
        protocol = _protocol(n, aggregation="tree", shard_size=4)
        process = _process(n)
        for t in range(1, 4):
            protocol.run_round(t, process.costs_at(t))
        assert protocol.tree_rounds == 3
        protocol.crash_worker(7)
        protocol.crash_worker(12)
        # failure detection re-agrees rosters on the flat batched round
        obs = RoundObservation(protocol)
        _, local, global_cost, straggler = protocol.run_round(
            4, process.costs_at(4)
        )
        assert protocol.tree_rounds == 3
        assert (protocol.detect_rounds, protocol.fallback_rounds) == (1, 0)
        assert check_round_invariants(
            protocol, obs, 4, local, global_cost, straggler
        ) == []
        # next round reshards onto the 28-worker roster and runs tree
        obs = RoundObservation(protocol)
        _, local, global_cost, straggler = protocol.run_round(
            5, process.costs_at(5)
        )
        assert protocol.tree_rounds == 4
        assert sorted(protocol.roster) == [
            w for w in range(n) if w not in (7, 12)
        ]
        assert check_round_invariants(
            protocol, obs, 5, local, global_cost, straggler
        ) == []
        assert protocol.last_tree.validate(protocol.roster) == []
        # rejoin reshards again
        protocol.rejoin_worker(7)
        obs = RoundObservation(protocol)
        _, local, global_cost, straggler = protocol.run_round(
            6, process.costs_at(6)
        )
        assert check_round_invariants(
            protocol, obs, 6, local, global_cost, straggler
        ) == []
        assert protocol.allocation.sum() == pytest.approx(1.0)

    def test_crash_rejoin_epoch_at_n128_never_falls_back(self):
        """One membership epoch at N=128 — tree rounds, a crash, tree
        rounds, the rejoin, tree rounds — without an event-engine round:
        the failure detection runs batched."""
        n = 128
        protocol = _protocol(n, aggregation="tree")
        process = _process(n)
        t = 0
        for membership in (None, protocol.crash_worker, protocol.rejoin_worker):
            if membership is not None:
                membership(77)
            for _ in range(3):
                t += 1
                obs = RoundObservation(protocol)
                _, local, global_cost, straggler = protocol.run_round(
                    t, process.costs_at(t)
                )
                assert check_round_invariants(
                    protocol, obs, t, local, global_cost, straggler
                ) == []
        assert protocol.fallback_rounds == 0
        assert (protocol.tree_rounds, protocol.detect_rounds) == (8, 1)
        assert protocol.roster == list(range(n))

    def test_invariant_checker_catches_corrupt_overlay(self):
        from repro.net.aggtree import AggregationTree

        n = 12
        protocol = _protocol(n, aggregation="tree", shard_size=3)
        process = _process(n)
        obs = RoundObservation(protocol)
        _, local, global_cost, straggler = protocol.run_round(
            1, process.costs_at(1)
        )
        assert protocol.tree_rounds == 1
        # overlay that covers the wrong roster
        protocol.last_tree = AggregationTree.build(range(n - 2), shard_size=3)
        violations = check_round_invariants(
            protocol, obs, 1, local, global_cost, straggler
        )
        assert any("aggregation tree" in v for v in violations)


class TestCheckpointRoundTrip:
    def _advance(self, protocol, process, start, stop):
        for t in range(start, stop):
            protocol.run_round(t, process.costs_at(t))

    def test_aggregation_state_round_trips(self):
        n = 15
        protocol = _protocol(n, aggregation="tree", shard_size=4, branching=2)
        process = _process(n)
        self._advance(protocol, process, 1, 5)
        state = capture_protocol(protocol)
        assert state["tree_rounds"] == 4
        assert state["aggregation"]["mode"] == "tree"
        assert state["aggregation"]["last_tree"] is not None

        replica = _protocol(n, aggregation="tree", shard_size=4, branching=2)
        restore_protocol(replica, state)
        assert replica.tree_rounds == 4
        assert replica.last_tree is not None
        assert replica.last_tree.shards == protocol.last_tree.shards
        assert replica.last_tree.validate(replica.roster) == []
        # the restored protocol continues on the tree path with the
        # exact same trajectory as the original
        self._advance(protocol, process, 5, 8)
        self._advance(replica, _process(n), 5, 8)
        assert np.array_equal(replica.allocation, protocol.allocation)
        assert replica.tree_rounds == protocol.tree_rounds

    def test_config_mismatch_is_rejected(self):
        n = 10
        protocol = _protocol(n, aggregation="tree", shard_size=3)
        process = _process(n)
        self._advance(protocol, process, 1, 3)
        state = capture_protocol(protocol)
        with pytest.raises(CheckpointError, match="aggregation config"):
            restore_protocol(_protocol(n), state)  # flat protocol
        with pytest.raises(CheckpointError, match="aggregation config"):
            restore_protocol(
                _protocol(n, aggregation="tree", shard_size=5), state
            )
        with pytest.raises(CheckpointError, match="aggregation config"):
            restore_protocol(
                _protocol(
                    n, aggregation="tree", shard_size=3, backend="numpy32"
                ),
                state,
            )

    def test_pre_aggregation_snapshot_still_restores(self):
        n = 8
        protocol = _protocol(n)
        process = _process(n)
        self._advance(protocol, process, 1, 3)
        state = capture_protocol(protocol)
        # simulate a snapshot written before the aggregation layer
        state = dict(state)
        state.pop("aggregation")
        state.pop("tree_rounds")
        replica = _protocol(n)
        restore_protocol(replica, state)
        assert replica.tree_rounds == 0
        assert replica.last_tree is None
        # rosters restore as shared frozensets
        rosters = {id(peer.roster) for peer in replica.peers}
        assert len(rosters) == 1
        assert isinstance(replica.peers[0].roster, frozenset)
