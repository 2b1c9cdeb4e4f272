"""Integration tests for the struct-of-arrays peer store (Layer 10).

The store is the FD protocol's only peer state. Its contract has three
parts, each pinned here: construction is O(N) array allocations with
peers hydrated lazily as flyweight views (a clean compiled round
hydrates nobody) whose every field reads and writes its store column;
views over a sparse topology carry the topology's
neighbor lists; and snapshots of the retired object-peer representation
still restore, bit-for-bit.
"""

import gc
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.ckpt.snapshot import Snapshot
from repro.ckpt.state import capture_protocol, restore_protocol
from repro.core.ledger import RoundLedger
from repro.core.peerstore import PeerStore
from repro.costs.affine_vector import AffineCostVector
from repro.costs.timevarying import DriftingAffineProcess
from repro.net.links import ConstantLatency, Link
from repro.net.topology import Topology
from repro.protocols.fully_distributed import FullyDistributedDolbie


GOLDEN_DIR = Path(__file__).resolve().parents[1] / "golden"


def _process(n, seed=0):
    speeds = [1.0 + 3.0 * (i / max(n - 1, 1)) for i in range(n)]
    return DriftingAffineProcess(speeds, amplitude=0.25, period=40.0, seed=seed)


def _protocol(n, **kwargs):
    kwargs.setdefault("link", Link(ConstantLatency(0.001)))
    return FullyDistributedDolbie(n, **kwargs)


#: Every column-backed view field: (field, value written through a view,
#: what the store column holds for it), the ``None`` encodings included.
_VIEW_COLUMNS = [
    pytest.param("x", 0.25, 0.25, id="x"),
    pytest.param("alpha_bar", 0.125, 0.125, id="alpha_bar"),
    pytest.param("local_cost", 3.5, 3.5, id="local_cost"),
    pytest.param("local_cost", None, np.nan, id="local_cost-None"),
    pytest.param("current_round", 7, 7, id="current_round"),
    pytest.param("is_straggler", True, True, id="is_straggler"),
    pytest.param("global_cost", 2.0, 2.0, id="global_cost"),
    pytest.param("global_cost", None, np.nan, id="global_cost-None"),
    pytest.param("straggler_id", 4, 4, id="straggler_id"),
    pytest.param("straggler_id", None, -1, id="straggler_id-None"),
    pytest.param("failed", True, True, id="failed"),
    pytest.param("received_count", 9, 9, id="received_count"),
]


class TestConstructionAndHydration:
    def test_clean_compiled_rounds_hydrate_no_peers(self):
        n = 1000
        protocol = _protocol(n, aggregation="tree", backend="compiled")
        process = _process(n)
        for t in range(1, 4):
            protocol.run_round(t, process.costs_at(t))
        assert protocol.tree_rounds == 3
        # The whole point of the store: a healthy compiled round works
        # on the packed arrays and never materializes a peer object.
        assert len(protocol.cluster._nodes) == 0

    @pytest.mark.parametrize("field,view_value,column_value", _VIEW_COLUMNS)
    def test_hydrated_views_are_cached_flyweights(
        self, field, view_value, column_value
    ):
        protocol = _protocol(12)
        peer = protocol.peers[5]
        assert protocol.peers[5] is peer
        assert protocol.cluster.node(5) is peer
        column = getattr(protocol._store, field)
        if view_value is None:  # start both peers set, so clearing shows
            column[5] = column[6] = 1
        # A view write is a column write, encoded ...
        before = column.copy()
        setattr(peer, field, view_value)
        np.testing.assert_array_equal(column[5], column_value)
        np.testing.assert_array_equal(np.delete(column, 5), np.delete(before, 5))
        # ... and a column write is seen through the view, decoded to a
        # python scalar.
        other = protocol.peers[6]
        column[6] = column_value
        got = getattr(other, field)
        if view_value is None:
            assert got is None
        else:
            assert type(got) is type(view_value) and got == view_value

    def test_peers_index_out_of_range_raises_index_error(self):
        protocol = _protocol(4)
        peers = protocol.peers
        assert peers[-4] is peers[0] and peers[3] is peers[-1]
        for index in (4, 5, -5, -6):
            with pytest.raises(IndexError):
                peers[index]
        # A Sequence: iteration protocols that stop on IndexError work.
        assert len(list(peers)) == 4 and peers.index(peers[2]) == 2

    def test_store_arrays_are_packed_o_n(self):
        n = 50_000
        protocol = _protocol(n, aggregation="tree", backend="compiled")
        store = protocol._store
        assert store.x.shape == (n,)
        assert np.isclose(store.x.sum(), 1.0)
        # One compiled round end-to-end at this N stays well inside
        # tier-1 time.
        process = _process(n)
        protocol.run_round(1, process.costs_at(1))
        assert protocol.tree_rounds == 1


def _affine_vector(rng, n):
    """One round of affine costs, built with numpy (no per-worker objects)."""
    speeds = 1.0 + (np.arange(n) % 23)
    return AffineCostVector(
        1.0 / (speeds * rng.lognormal(0.0, 0.1, n)), rng.uniform(0.0, 0.01, n)
    )


def _traced() -> int:
    gc.collect()
    return tracemalloc.get_traced_memory()[0]


class TestFootprint:
    """Bytes per peer at N=10^5, from tracemalloc (tree aggregation,
    pair counts never read): a healthy round builds no pair table, no
    roster set and no per-worker cost object, and frees its temporaries
    phase by phase."""

    N = 100_000

    @pytest.fixture(scope="class")
    def footprint(self):
        n = self.N
        rng = np.random.default_rng(7)
        costs = [_affine_vector(rng, n) for _ in range(3)]
        tracemalloc.start()
        try:
            base = _traced()
            vector = _affine_vector(rng, n)
            vector_bytes = _traced() - base
            del vector
            base = _traced()
            protocol = _protocol(n, aggregation="tree")
            built = _traced()
            protocol.run_round(1, costs[0])
            first = _traced()
            protocol.run_round(2, costs[1])
            steady = _traced()
            tracemalloc.reset_peak()
            protocol.run_round(3, costs[2])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert protocol.tree_rounds == 3
        return {
            "vector": vector_bytes / n,
            "construct": (built - base) / n,
            "first_round": (first - built) / n,
            "steady_peak": (peak - steady) / n,
            "store": protocol._store,
        }

    def test_construction_holds_at_most_100_bytes_per_peer(self, footprint):
        # The nine store columns are 58 B; the shared roster set is not
        # built.
        assert footprint["construct"] <= 100
        assert footprint["store"]._shared_roster is None

    def test_first_tree_round_retains_at_most_120_bytes_per_peer(
        self, footprint
    ):
        assert footprint["first_round"] <= 120

    def test_steady_round_peaks_at_most_80_bytes_per_peer(self, footprint):
        assert footprint["steady_peak"] <= 80

    def test_cost_vector_holds_at_most_33_bytes_per_worker(self, footprint):
        assert footprint["vector"] <= 33


class TestLazySharedRoster:
    """A fresh store's roster is the full range, and its frozenset is
    built only when some code path reads the object."""

    def test_state_builds_no_set(self):
        n = 100_000
        store = PeerStore(n, np.full(n, 1.0 / n), 0.5)
        state = store.state()
        assert store._shared_roster is None
        assert state["shared_roster"].dtype == np.int64
        assert np.array_equal(state["shared_roster"], np.arange(n))

    def test_restore_of_the_full_range_leaves_the_set_unbuilt(self):
        n = 16
        source = PeerStore(n, np.full(n, 1.0 / n), 0.5)
        assert source.shared_roster == frozenset(range(n))  # built here
        target = PeerStore(n, np.full(n, 1.0 / n), 0.5)
        target.shared_roster = frozenset({1, 2})
        target.restore(source.state())
        assert target._shared_roster is None
        assert target.state()["shared_roster"].tolist() == list(range(n))
        partial = source.state()
        partial["shared_roster"] = np.arange(1, n)
        target.restore(partial)
        assert target.shared_roster == frozenset(range(1, n))

    def test_size_and_membership_answer_without_the_set(self):
        n = 16
        store = PeerStore(n, np.full(n, 1.0 / n), 0.5)
        assert store.shared_size() == n
        assert store.in_shared_roster(0) and store.in_shared_roster(n - 1)
        assert not store.in_shared_roster(n) and not store.in_shared_roster(-1)
        assert store._shared_roster is None
        store.rebind_roster(frozenset(range(1, n)))
        assert store.shared_size() == n - 1 and not store.in_shared_roster(0)

    def test_a_view_reads_the_shared_set(self):
        protocol = _protocol(8)
        peer = protocol.peers[3]
        assert protocol._store._shared_roster is None
        roster = peer.roster
        assert roster == frozenset(range(8))
        assert protocol.peers[5].roster is roster  # one shared object
        peer.roster = roster  # rebinding the shared object: no override
        assert protocol._store.roster_overrides == {}

    def test_rebind_gives_stale_peers_the_old_set(self):
        n = 8
        store = PeerStore(n, np.full(n, 1.0 / n), 0.5)
        store.rebind_roster(frozenset(range(1, n)), stale_ids=[0])
        assert store.roster_of(0) == frozenset(range(n))
        assert store.roster_of(1) == frozenset(range(1, n))


class TestTopologyViews:
    def test_ring_views_carry_the_topology_neighbors(self):
        n = 8
        topology = Topology.ring(n)
        protocol = _protocol(n, topology=topology)
        for i in range(n):
            assert protocol.peers[i].neighbors == topology.neighbors(i)
        # Complete-graph views message everyone directly.
        assert _protocol(n).peers[3].neighbors is None


class TestObjectPeerSnapshot:
    """Snapshots of the retired object-peer representation still load.

    ``tests/golden/fd_object_snapshot.json`` holds a per-peer ``peers``
    list and per-replica ledgers, captured from an object-peer protocol
    (N=24, tree aggregation, ``ConstantLatency(0.001)``, worker 7
    crashed before round 2 and rejoined before round 4, snapshot after
    round 4). ``fd_object_continuation.json`` records what that protocol
    then produced in rounds 5-7: allocations, consensus, the ledger and
    every worker's replica.
    """

    def _restored(self):
        snap = Snapshot.from_bytes(
            (GOLDEN_DIR / "fd_object_snapshot.json").read_bytes()
        )
        n = int(snap.config["num_workers"])
        protocol = _protocol(n, aggregation="tree", backend="compiled")
        restore_protocol(protocol, snap.state)
        return protocol, _process(n, seed=int(snap.config["seed"])), snap

    def test_restores_and_continues_like_the_object_peers(self):
        protocol, process, snap = self._restored()
        # The fixture predates the single representation: it carries
        # the per-peer list and the old aggregation.peer_store field.
        assert "peers" in snap.state
        assert snap.state["aggregation"]["peer_store"] is False
        # ... and predates the batched failure detection's counter.
        assert "detect_rounds" not in snap.state
        assert protocol.detect_rounds == 0
        expected = json.loads(
            (GOLDEN_DIR / "fd_object_continuation.json").read_text()
        )
        for record in expected["rounds"]:
            t = record["round"]
            x, _, cost, straggler = protocol.run_round(t, process.costs_at(t))
            assert x.tolist() == record["allocation"]
            assert cost == record["global_cost"]
            assert straggler == record["straggler"]
        assert protocol.allocation.tolist() == expected["allocation_after"]
        assert protocol.metrics.messages_total == expected["messages_total"]
        assert protocol.cluster.engine.now == expected["now"]
        assert protocol.ledger == RoundLedger.from_records(expected["ledger"])
        for w, records in enumerate(expected["worker_ledgers"]):
            assert protocol.worker_ledger(w) == RoundLedger.from_records(
                records
            ), f"worker {w} replica diverged"

    def test_detection_counter_round_trips(self):
        source = _protocol(12, aggregation="tree")
        process = _process(12)
        source.run_round(1, process.costs_at(1))
        source.crash_worker(4)
        source.run_round(2, process.costs_at(2))
        state = capture_protocol(source)
        assert state["detect_rounds"] == 1
        target = _protocol(12, aggregation="tree")
        restore_protocol(target, state)
        assert target.detect_rounds == 1

    def test_snapshot_with_legacy_peer_store_field_restores(self):
        source, process, _ = self._restored()
        state = capture_protocol(source)
        state["aggregation"]["peer_store"] = True
        target = _protocol(
            source.num_workers, aggregation="tree", backend="compiled"
        )
        restore_protocol(target, state)
        for t in range(5, 8):
            xa, _, ca, sa = source.run_round(t, process.costs_at(t))
            xb, _, cb, sb = target.run_round(t, process.costs_at(t))
            assert np.array_equal(xa, xb) and ca == cb and sa == sb
        assert source.ledger == target.ledger
