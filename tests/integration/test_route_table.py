"""The route table of both protocols: which route a round takes and why
the earlier routes refused it, how often membership is resolved, what
the route counters and snapshots read, and which ledger reads a round
makes."""

import json
from pathlib import Path

import pytest

from repro.ckpt.snapshot import Snapshot
from repro.ckpt.state import capture_protocol, restore_protocol
from repro.core.ledger import RoundLedger
from repro.costs.timevarying import DriftingAffineProcess
from repro.exceptions import ProtocolError
from repro.net.links import ConstantLatency, Link
from repro.obs import scenarios
from repro.obs.tracer import Tracer
from repro.protocols.fully_distributed import FullyDistributedDolbie
from repro.protocols.master_worker import MasterWorkerDolbie
from repro.protocols.routes import RouteChoice

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "golden"
N = 8


def _process(n, seed=0):
    speeds = [1.0 + 3.0 * (i / max(n - 1, 1)) for i in range(n)]
    return DriftingAffineProcess(speeds, amplitude=0.25, period=40.0, seed=seed)


def _protocol(n=N, cls=FullyDistributedDolbie, **kwargs):
    kwargs.setdefault("link", Link(ConstantLatency(0.001)))
    return cls(n, **kwargs)


def _rounds(protocol, start, count, process=None):
    process = process or _process(protocol.num_workers)
    for t in range(start, start + count):
        protocol.run_round(t, process.costs_at(t))
    return start + count


def _healthy_flat():
    return _protocol()


def _tree():
    return _protocol(aggregation="tree", shard_size=3)


def _crashed():
    protocol = _protocol()
    _rounds(protocol, 1, 2)
    protocol.crash_worker(3)
    return protocol


def _crashed_tree():
    protocol = _tree()
    _rounds(protocol, 1, 2)
    protocol.crash_worker(3)
    return protocol


def _chaos_hook():
    protocol = _protocol()
    protocol.cluster.set_extra_delay(2, 0.01)
    return protocol


def _stalled():
    protocol = _protocol()
    protocol.cluster.set_partition([(6, 7)])
    return protocol


def _per_view_timeout():
    protocol = _crashed()
    protocol.peers[0].cost_timeout = 0.5
    return protocol


def _no_fast_path():
    return _protocol(use_fast_path=False)


FLAT = "aggregation is flat"
BLOCKED = "cluster not batch-eligible"


@pytest.mark.parametrize(
    ("build", "route", "refusals"),
    [
        pytest.param(_healthy_flat, "flat", {"tree": FLAT}, id="healthy-flat"),
        pytest.param(_tree, "tree", {}, id="tree"),
        pytest.param(
            _crashed, "detect",
            {"tree": FLAT, "flat": "rosters disagree"},
            id="after-crash",
        ),
        pytest.param(
            _crashed_tree, "detect",
            {"tree": "rosters disagree", "flat": "rosters disagree"},
            id="after-crash-tree",
        ),
        pytest.param(
            _chaos_hook, "event",
            {"tree": FLAT, "flat": BLOCKED, "detect": BLOCKED},
            id="chaos-hook",
        ),
        pytest.param(
            _stalled, "event",
            {"tree": FLAT, "flat": "stalled peers", "detect": "stalled peers"},
            id="stalled-peer",
        ),
        pytest.param(
            _per_view_timeout, "event",
            {
                "tree": FLAT,
                "flat": "rosters disagree",
                "detect": "per-view cost timeout",
            },
            id="per-view-cost-timeout",
        ),
        pytest.param(
            _no_fast_path, "event",
            {
                "tree": FLAT,
                "flat": "fast path disabled",
                "detect": "fast path disabled",
            },
            id="fast-path-off",
        ),
    ],
)
def test_round_takes_the_first_accepting_route(build, route, refusals):
    protocol = build()
    before = dict(protocol.route_counts)
    start = 1 + len(protocol.ledger)
    _rounds(protocol, start, 1)
    assert protocol.last_route == RouteChoice(route, refusals)
    before[route] += 1
    assert protocol.route_counts == before


def test_detection_latency_guard_is_a_refusal_reason():
    protocol = _protocol(link=Link(ConstantLatency(2.0)))
    _rounds(protocol, 1, 1)
    protocol.crash_worker(3)
    with pytest.raises(ProtocolError):
        _rounds(protocol, 2, 1)  # too few costs beat the timeout
    assert protocol.last_route.name == "event"
    assert protocol.last_route.refusals["detect"] == "detection latency guard"


@pytest.mark.parametrize(
    ("build", "route", "refusals"),
    [
        pytest.param(lambda: _protocol(cls=MasterWorkerDolbie), "flat", {},
                     id="healthy"),
        pytest.param(
            lambda: _protocol(cls=MasterWorkerDolbie, use_fast_path=False),
            "event", {"flat": "fast path disabled"}, id="fast-path-off",
        ),
    ],
)
def test_master_worker_routes(build, route, refusals):
    protocol = build()
    _rounds(protocol, 1, 1)
    assert protocol.last_route == RouteChoice(route, refusals)
    assert protocol.route_counts == {
        "flat": int(route == "flat"), "event": int(route == "event")
    }


def test_master_worker_dead_worker_takes_the_event_route():
    protocol = _protocol(cls=MasterWorkerDolbie)
    _rounds(protocol, 1, 1)
    protocol.crash_worker(2)
    _rounds(protocol, 2, 1)
    assert protocol.last_route == RouteChoice("event", {"flat": "dead workers"})


def _count_resolutions(protocol):
    calls = []
    resolve = protocol._reachable_components

    def counted():
        calls.append(1)
        return resolve()

    protocol._reachable_components = counted
    return calls


@pytest.mark.parametrize("aggregation", ["flat", "tree"])
def test_membership_resolves_once_per_epoch(aggregation):
    protocol = _protocol(16, aggregation=aggregation)
    process = _process(16)
    calls = _count_resolutions(protocol)
    t = _rounds(protocol, 1, 100, process)
    assert len(calls) == 1
    protocol.crash_worker(5)
    # The detection round resolves, and so does the round after it
    # (the detection rewrote every survivor's roster).
    t = _rounds(protocol, t, 1, process)
    assert len(calls) == 2
    t = _rounds(protocol, t, 50, process)
    assert len(calls) == 3
    protocol.rejoin_worker(5)
    t = _rounds(protocol, t, 50, process)
    assert len(calls) == 4
    assert protocol.last_route.name == aggregation
    assert protocol.detect_rounds == 1 and protocol.fallback_rounds == 0


def _fd_protocol():
    protocol = FullyDistributedDolbie(
        scenarios.GOLDEN_WORKERS, alpha_1=0.001, tracer=Tracer()
    )
    protocol.run(
        scenarios._cost_process(scenarios.GOLDEN_WORKERS, scenarios.GOLDEN_SEED),
        scenarios.GOLDEN_ROUNDS,
    )
    return protocol


def _epoch(aggregation):
    def build():
        protocol = _protocol(16, aggregation=aggregation)
        process = scenarios._cost_process(16, 3)
        t = _rounds(protocol, 1, 4, process)
        protocol.crash_worker(5)
        t = _rounds(protocol, t, 4, process)
        protocol.rejoin_worker(5)
        _rounds(protocol, t, 4, process)
        return protocol

    return build


@pytest.mark.parametrize(
    ("build", "counts"),
    [
        pytest.param(_fd_protocol, (30, 0, 0, 0), id="fd"),
        pytest.param(scenarios.fd_tree_protocol, (30, 29, 1, 0), id="fd-tree"),
        pytest.param(scenarios.fd_ring_protocol, (0, 0, 0, 30), id="fd-ring"),
        pytest.param(_epoch("flat"), (12, 0, 1, 0), id="epoch-flat"),
        pytest.param(_epoch("tree"), (12, 11, 1, 0), id="epoch-tree"),
    ],
)
def test_route_counters_read_as_before(build, counts):
    """(fast, tree, detect, fallback) as the four counters read before
    they became views over ``route_counts``; snapshots write the same
    four keys and restore them."""
    protocol = build()
    read = (protocol.fast_rounds, protocol.tree_rounds,
            protocol.detect_rounds, protocol.fallback_rounds)
    assert read == counts
    assert sum(protocol.route_counts.values()) == len(protocol.ledger)
    state = capture_protocol(protocol)
    keys = ("fast_rounds", "tree_rounds", "detect_rounds", "fallback_rounds")
    assert tuple(state[key] for key in keys) == counts
    counts_before = dict(protocol.route_counts)
    protocol.route_counts = dict.fromkeys(counts_before, 0)
    restore_protocol(protocol, state)
    assert protocol.route_counts == counts_before


def test_object_peer_snapshot_counters_restore():
    """The object-peer fixture predates the tree and detection counters'
    split: its counters restore and keep counting."""
    snap = Snapshot.from_bytes(
        (GOLDEN_DIR / "fd_object_snapshot.json").read_bytes()
    )
    n = int(snap.config["num_workers"])
    protocol = _protocol(n, aggregation="tree", backend="compiled")
    restore_protocol(protocol, snap.state)
    assert protocol.route_counts == {
        "tree": 3, "flat": 0, "detect": 0, "event": 1
    }
    rounds = json.loads(
        (GOLDEN_DIR / "fd_object_continuation.json").read_text()
    )["rounds"]
    _rounds(protocol, rounds[0]["round"], len(rounds),
            _process(n, seed=int(snap.config["seed"])))
    assert (protocol.fast_rounds, protocol.tree_rounds) == (6, 6)


def test_steady_rounds_never_copy_the_ledger(monkeypatch):
    """Steady flat and tree rounds, a replica read and a replica restore
    read the authoritative ledger without building its ``entries``
    tuple (an O(T) copy per call)."""
    calls = []
    entries = RoundLedger.entries

    def counted(ledger):
        calls.append(1)
        return entries.fget(ledger)

    monkeypatch.setattr(RoundLedger, "entries", property(counted))
    flat = _protocol(16)
    tree = _protocol(16, aggregation="tree")
    _rounds(flat, 1, 200)
    _rounds(tree, 1, 200)
    replica = flat.worker_ledger(3)
    assert len(replica) == 200
    flat.restore_worker_ledger(3, list(replica)[:150])
    assert calls == []
    assert list(flat.worker_ledger(3)) == list(replica)[:150]
    assert flat._ledger_book.materialized == {}
