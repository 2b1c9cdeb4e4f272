"""Integration tests for the struct-of-arrays peer store (Layer 10).

The store is the FD protocol's only peer state. Its contract has three
parts, each pinned here: construction is O(N) array allocations with
peers hydrated lazily as flyweight views (a clean compiled round
hydrates nobody); views over a sparse topology carry the topology's
neighbor lists; and snapshots of the retired object-peer representation
still restore, bit-for-bit.
"""

import json
from pathlib import Path

import numpy as np

from repro.ckpt.snapshot import Snapshot
from repro.ckpt.state import capture_protocol, restore_protocol
from repro.core.ledger import RoundLedger
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

    def test_hydrated_views_are_cached_flyweights(self):
        protocol = _protocol(12)
        peer = protocol.peers[5]
        assert protocol.peers[5] is peer
        assert protocol.cluster.node(5) is peer
        # A view mutation is a store mutation.
        peer.alpha_bar = 0.125
        assert protocol._store.alpha_bar[5] == 0.125

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
